package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share the root span's id as their parent; times are milliseconds
// since the tracer started.
type span struct {
	ID     uint64  `json:"id,omitempty"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Bytes  int64   `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span // vet:guardedby mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) at(tm time.Time) float64 { return ms(tm.Sub(t.origin)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes is the per-operation time of each layer in a traced run,
// keyed by the root operation's kind ("query" or "edit").
type layerTimes struct {
	// per kind, per span name: one value per root that has such spans —
	// the summed durations of that root's spans of the name.
	byKind map[string]map[string][]float64
	// per kind: root span duration minus the server span it caused,
	// the time spent in the client, the connection and JSON decoding.
	clientSelf map[string][]float64
	// bytes per query response, as the server wrote them.
	respBytes []float64
}

// analyze groups the spans under their roots.
func analyze(spans []span) layerTimes {
	roots := map[uint64]string{}
	rootDur := map[uint64]float64{}
	for _, s := range spans {
		switch s.Name {
		case "client.query":
			roots[s.ID], rootDur[s.ID] = "query", s.dur()
		case "client.edit":
			roots[s.ID], rootDur[s.ID] = "edit", s.dur()
		}
	}
	sums := map[uint64]map[string]float64{}
	bytes := map[uint64]float64{}
	for _, s := range spans {
		if _, ok := roots[s.Parent]; !ok {
			continue
		}
		m := sums[s.Parent]
		if m == nil {
			m = map[string]float64{}
			sums[s.Parent] = m
		}
		m[s.Name] += s.dur()
		bytes[s.Parent] += float64(s.Bytes)
	}
	lt := layerTimes{byKind: map[string]map[string][]float64{}, clientSelf: map[string][]float64{}}
	ids := make([]uint64, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		kind, m := roots[id], sums[id]
		byName := lt.byKind[kind]
		if byName == nil {
			byName = map[string][]float64{}
			lt.byKind[kind] = byName
		}
		for name, v := range m {
			byName[name] = append(byName[name], v)
		}
		if srv, ok := m["web.server"]; ok {
			lt.clientSelf[kind] = append(lt.clientSelf[kind], rootDur[id]-srv)
			if kind == "query" {
				lt.respBytes = append(lt.respBytes, bytes[id])
			}
		}
	}
	return lt
}

// p50 of the named layer for one kind of operation, 0 when absent.
func (lt layerTimes) p50(kind, name string) float64 {
	return quantile(lt.byKind[kind][name], 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// latSummary describes one latency sample set.
type latSummary struct {
	N   int     `json:"n"`
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func summarize(xs []float64) latSummary {
	return latSummary{N: len(xs), P10: quantile(xs, 0.1), P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99), Max: quantile(xs, 1)}
}
