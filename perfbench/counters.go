package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	dynxml "repro"
	"repro/internal/dyndoc"
)

// counters is one readout of everything the program already counts:
// the process-wide metrics registry (dynxml.MetricsJSON), every leader
// document's Handle.Stats, the leader's on-disk bytes and the Go
// runtime's CPU and allocation counters. Per-layer counter metrics are
// deltas of two readouts taken around the measured phase.
type counters struct {
	reg       map[string]json.RawMessage
	stats     []dynxml.HandleStats
	diskBytes int64 // journal files under the leader root (pages excluded)
	// labelBits and labelNodes sum the leader labelings' TotalLabelBits
	// and Len.
	labelBits, labelNodes float64
	rt                    map[string]float64
	cpu                   time.Duration // processCPU
}

// runtimeNames are the runtime/metrics samples the process layer reads.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readCounters(e *env) (*counters, error) {
	c := &counters{rt: map[string]float64{}, cpu: processCPU()}
	raw, err := dynxml.MetricsJSON()
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &c.reg); err != nil {
		return nil, err
	}
	for _, ds := range e.docs {
		err := e.pinned(ds.name, func(h *dynxml.Handle, d *dyndoc.Document) error {
			c.stats = append(c.stats, h.Stats())
			c.labelBits += float64(d.Labeling().TotalLabelBits())
			c.labelNodes += float64(d.Labeling().Len())
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	root := filepath.Join(e.dir, "leader")
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "pages" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			c.diskBytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	for _, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			c.rt[x.Name] = x.Value.Float64()
		case metrics.KindUint64:
			c.rt[x.Name] = float64(x.Value.Uint64())
		}
	}
	return c, nil
}

// counter reads a counter or gauge of the registry (0 when absent).
func (c *counters) counter(name string) float64 {
	var v float64
	if raw, ok := c.reg[name]; ok {
		_ = json.Unmarshal(raw, &v) // a histogram or a missing value reads as 0
	}
	return v
}

// hist reads a histogram's observation count and sum.
func (c *counters) hist(name string) (count, sum float64) {
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	}
	if raw, ok := c.reg[name]; ok {
		_ = json.Unmarshal(raw, &h) // a missing histogram reads as empty
	}
	return h.Count, h.Sum
}

// delta is the change of a registry counter between two readouts.
func delta(a, b *counters, name string) float64 { return b.counter(name) - a.counter(name) }

// histMean is the mean of the observations a histogram gained between
// two readouts, scaled by k, or 0 without any.
func histMean(a, b *counters, name string, k float64) float64 {
	c0, s0 := a.hist(name)
	c1, s1 := b.hist(name)
	return ratio((s1-s0)*k, c1-c0)
}

// storage sums the leader documents' backend counters.
func (c *counters) storage() (hits, misses, writebacks uint64, allocated int, relabeled int64) {
	for _, s := range c.stats {
		hits += s.Storage.CacheHits
		misses += s.Storage.CacheMisses
		writebacks += s.Storage.Writebacks
		allocated += s.Storage.AllocatedPages
		relabeled += s.Relabeled
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lagSampler samples the follower's lag behind its leader, in
// sequences, while the counters phase runs.
type lagSampler struct {
	stop chan struct{}
	done chan []float64
}

func startLagSampler(e *env) *lagSampler {
	ls := &lagSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var lags []float64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ls.stop:
				ls.done <- lags
				return
			case <-t.C:
			}
			for _, ds := range e.docs {
				pin, err := e.follow.cat.Acquire(ds.name)
				if err != nil {
					continue
				}
				r := pin.Handle().Stats().Replica
				pin.Release()
				// The follower learns the leader's horizon at its last
				// poll, so it can briefly read below its own sequence.
				lags = append(lags, max(0, float64(r.LeaderHorizon)-float64(r.Seq)))
			}
		}
	}()
	return ls
}

// finish stops the sampler and returns its samples.
func (ls *lagSampler) finish() []float64 {
	close(ls.stop)
	return <-ls.done
}

// heapMB forces a collection and returns the live Go heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// processCPU returns the CPU time the kernel has charged to this
// process, user and system, the benchmark's client included. Unlike wall
// time it leaves out the time the process waited for a CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostInfo identifies the machine a result was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
