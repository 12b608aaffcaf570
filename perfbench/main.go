// Command perfbench is the repository's end-to-end benchmark. It serves
// documents in-process exactly as dynxmld does — catalog.Open behind
// web.New on a loopback listener — and drives them through the typed
// client with one closed-loop client, which waits for each reply before
// it sends the next request. The process runs on one CPU
// (GOMAXPROCS 1): the client and the server then hand requests to each
// other on one thread instead of waking a second one, and a host that
// lends the process less than its CPUs moves the figures less.
//
//	perfbench --workload tenants --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the measured phase twice, untraced then traced, and prints the
// per-layer metrics, the layers' self times, how they reconcile with
// the end-to-end median and the tracing overhead. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// A line before it, starting with "# report ", records the host, the
// seed, every set-up sample and the latency summaries of the run; the
// full record, raw samples and spans included, goes under
// .bench_build/results. The exit code is 0 when every output check
// passed, 1 when one failed and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	runtime.GOMAXPROCS(1)
	o, code := parseArgs(os.Args[1:], os.Stderr)
	if code != 0 {
		os.Exit(code)
	}
	os.Exit(execute(o, os.Stdout, os.Stderr))
}

// Fixed parts of every run started from the command line.
const (
	setupReps = 5           // set-ups per run; setup_s is their median
	warmup    = time.Second // unmeasured load before the measured phase
)

// options is one run's configuration.
type options struct {
	workload  string
	seed      int64
	seconds   float64 // length of the measured phase
	trace     bool
	setupReps int
	warmup    time.Duration
	dir       string // working directory for catalogs and results
}

// parseArgs turns the command line into a run's options; a non-zero
// code means the arguments were wrong.
func parseArgs(args []string, stderr io.Writer) (options, int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setupReps: setupReps, warmup: warmup, dir: filepath.Join(".bench_build", "runs")}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 40, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, 2
	}
	o.trace = trace == 1
	var bad string
	switch {
	case trace != 0 && trace != 1:
		bad = "--trace must be 0 or 1"
	case workloads[o.workload] == nil:
		bad = fmt.Sprintf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.seconds <= 0:
		bad = "--seconds must be positive"
	}
	if bad != "" {
		_, _ = fmt.Fprintf(stderr, "perfbench: %s\n", bad) // diagnostics only
		return o, 2
	}
	return o, 0
}

// execute runs the benchmark, prints the report and result lines and
// returns the exit code.
func execute(o options, stdout, stderr io.Writer) int {
	// Diagnostics only: a failed write to stderr changes nothing.
	say := func(format string, args ...any) { _, _ = fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...) }
	res, err := run(o)
	if err != nil {
		say("%v", err)
		return 2
	}
	for _, msg := range res.problems {
		say("check failed: %s", msg)
	}
	if path, err := res.save(o); err != nil {
		say("saving results: %v", err)
	} else {
		say("full record in %s", path)
	}
	rep, err := json.Marshal(res.report)
	if err != nil {
		say("%v", err)
		return 2
	}
	line, err := res.line()
	if err != nil {
		say("%v", err)
		return 2
	}
	if _, err := fmt.Fprintf(stdout, "# report %s\n%s\n", rep, line); err != nil {
		say("writing the result: %v", err)
		return 2
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// metric is one printed figure.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run produced.
type result struct {
	attempted, failed int64
	metrics           []metric
	problems          []string // failed output checks
	report            report
	detail            detail
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// line renders the contract's final JSON line.
func (r *result) line() ([]byte, error) {
	ms := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		if _, dup := ms[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		ms[m.Name] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, ms})
}

// report is the one-line record printed before the result: enough to
// tell run-to-run drift from a change.
type report struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	Seconds   float64               `json:"seconds"`
	Host      hostInfo              `json:"host"`
	SetupS    []float64             `json:"setup_s_samples"`
	Latencies map[string]latSummary `json:"latency_ms"`
	Checks    []string              `json:"failed_checks,omitempty"`
	Errors    []string              `json:"failed_ops,omitempty"`
	SizeDrift int                   `json:"max_size_drift_nodes"`
}

// detail is the full record written under .bench_build/results: the
// report plus every raw latency sample and every span.
type detail struct {
	Report  report               `json:"report"`
	Samples map[string][]float64 `json:"samples_ms"`
	Metrics map[string]metric    `json:"metrics"`
	Spans   []span               `json:"spans,omitempty"`
}

// save writes the full record and returns its path.
func (r *result) save(o options) (string, error) {
	dir := filepath.Join(filepath.Dir(filepath.Clean(o.dir)), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	d := r.detail
	d.Report = r.report
	d.Metrics = map[string]metric{}
	for _, m := range r.metrics {
		d.Metrics[m.Name] = m
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, b2i(o.trace), time.Now().UnixNano()))
	return path, os.WriteFile(path, raw, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
