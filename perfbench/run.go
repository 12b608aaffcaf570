package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/xmltree"
)

// sideEvery samples one operation in sideEvery for the traced side
// path, which re-runs the operation layer by layer after its reply. It
// is odd, so a workload that alternates edits and queries samples both.
const sideEvery = 3

// run performs one benchmark run: set-ups, warm-up, the measured
// phase(s) and the final output checks.
func run(o options) (*result, error) {
	wl := workloads[o.workload]
	defer debug.SetGCPercent(debug.SetGCPercent(wl.gogc))
	res := &result{}
	res.report = report{Workload: wl.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Host: host(), Latencies: map[string]latSummary{}}
	res.detail.Samples = map[string][]float64{}
	corpus := wl.corpus()

	// xmltree layer: parsing the set-up documents, timed apart from the
	// servers that parse them again.
	parseStart := time.Now()
	for _, d := range corpus {
		if _, err := xmltree.ParseString(d.xml); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", d.name, err)
		}
	}
	parseMS := ms(time.Since(parseStart))

	runDir := filepath.Join(o.dir, fmt.Sprintf("%s-%d-%d", wl.name, o.seed, os.Getpid()))
	defer func() { _ = os.RemoveAll(runDir) }() // best effort: the results are already in memory
	var e *env
	for i := 0; i < o.setupReps; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		s, err := setupEnv(wl, dir, corpus)
		took := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.report.SetupS = append(res.report.SetupS, took.Seconds())
		if i == o.setupReps-1 {
			e = s
			break
		}
		s.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer e.close()
	if err := e.prepare(corpus); err != nil {
		return nil, err
	}
	l, err := newLoop(o, wl, e)
	if err != nil {
		return nil, err
	}
	defer l.close()

	// Warm-up: caches fill and lazy opens finish before timing.
	warm := runPhase(l, o.warmup, nil)
	res.problems = append(res.problems, warm.s.problems...)

	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p := runPhase(l, dur, nil)
		res.record("", p)
		res.add("query_p50_ms", "ms", quantile(p.s.query, 0.5))
		res.add("query_p90_ms", "ms", quantile(p.s.query, 0.9))
		res.add("edit_p50_ms", "ms", quantile(p.s.edit, 0.5))
		res.add("edit_p90_ms", "ms", quantile(p.s.edit, 0.9))
		res.add("visible_p50_ms", "ms", quantile(p.s.visible, 0.5))
		res.add("visible_p90_ms", "ms", quantile(p.s.visible, 0.9))
		done := float64(p.s.attempted - p.s.failed)
		res.add("ops_per_s", "1/s", done/p.wall.Seconds())
		res.add("cpu_ms_per_op", "ms", ratio(ms(p.cpu), done))
		res.add("setup_s", "s", quantile(res.report.SetupS, 0.5))
		res.add("heap_mb", "MB", heapMB())
	} else {
		// The untraced half gives the counter deltas and the baseline of
		// the tracing overhead; the traced half gives the spans.
		before, err := readCounters(e)
		if err != nil {
			return nil, err
		}
		var lag *lagSampler
		if e.follow != nil {
			lag = startLagSampler(e)
		}
		plain := runPhase(l, dur/2, nil)
		var lags []float64
		if lag != nil {
			lags = lag.finish()
		}
		after, err := readCounters(e)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced := runPhase(l, dur/2, tr)
		res.record("untraced_", plain)
		res.record("traced_", traced)
		spans := tr.all()
		res.detail.Spans = spans
		res.perLayer(plain, traced, before, after, analyze(spans), lags, parseMS)
	}
	if err := finalChecks(res, wl, e); err != nil {
		return nil, fmt.Errorf("final checks: %w", err)
	}
	res.report.Checks = res.problems
	return res, nil
}

// record counts a measured phase's operations and keeps its samples.
func (r *result) record(prefix string, p *phase) {
	r.attempted += p.s.attempted
	r.failed += p.s.failed
	r.problems = append(r.problems, p.s.problems...)
	r.report.Errors = capped(r.report.Errors, p.s.errs...)
	for name, xs := range map[string][]float64{"query": p.s.query, "edit": p.s.edit, "visible": p.s.visible} {
		r.report.Latencies[prefix+name] = summarize(xs)
		r.detail.Samples[prefix+name] = xs
	}
}

// perLayer derives the per-layer metrics: counter deltas over the
// untraced phase, span times over the traced one, the layers' self
// times on the blocking path of a query and of an edit, how those add
// up to the traced end-to-end median, and the tracing overhead.
func (r *result) perLayer(plain, traced *phase, a, b *counters, lt layerTimes, lags []float64, parseMS float64) {
	ops := float64(plain.s.attempted - plain.s.failed)
	edits := float64(plain.s.edits)
	secs := plain.wall.Seconds()

	// client + web, on the read path
	r.add("web.server_ms_p50", "ms", lt.p50("query", "web.server"))
	r.add("web.client_ms_p50", "ms", quantile(lt.clientSelf["query"], 0.5))
	r.add("web.resp_bytes_per_query", "bytes", mean(lt.respBytes))

	// catalog: Acquire plus Release, the two catalog.pin spans of an
	// operation summed
	acquire := func(kind string) float64 { return lt.p50(kind, "catalog.pin") }
	acq := append(append([]float64(nil), lt.byKind["query"]["catalog.pin"]...), lt.byKind["edit"]["catalog.pin"]...)
	r.add("catalog.acquire_us_p50", "us", quantile(acq, 0.5)*1e3)
	r.add("catalog.opens", "count", delta(a, b, "catalog_opens_total"))
	r.add("catalog.replays", "count", delta(a, b, "catalog_replays_total"))
	r.add("catalog.evictions", "count", delta(a, b, "catalog_evictions_total"))

	// xpath and its plan/result caches
	resHit := ratio(delta(a, b, "xpath_result_cache_hits_total"), delta(a, b, "xpath_result_cache_hits_total")+delta(a, b, "xpath_result_cache_misses_total"))
	r.add("xpath.eval_ms_p50", "ms", lt.p50("query", "xpath.eval"))
	r.add("xpath.result_cache_hit_ratio", "ratio", resHit)
	r.add("xpath.plan_cache_hit_ratio", "ratio", ratio(delta(a, b, "xpath_plan_cache_hits_total"), delta(a, b, "xpath_plan_cache_hits_total")+delta(a, b, "xpath_plan_cache_misses_total")))
	r.add("xpath.ids_per_query", "count", ratio(float64(plain.s.ids), float64(plain.s.queries)))

	// dyndoc
	r.add("dyndoc.clone_ms_p50", "ms", lt.p50("edit", "dyndoc.clone"))
	r.add("dyndoc.apply_us_p50", "us", lt.p50("edit", "dyndoc.apply")*1e3)

	// labels
	hits0, miss0, wb0, _, rel0 := a.storage()
	hits1, miss1, wb1, alloc1, rel1 := b.storage()
	r.add("label.relabeled_per_edit", "count", ratio(float64(rel1-rel0), edits))
	// The cdbs_code_len_bits histogram is fed by cdbs.List only, not by
	// containment labelings, so the code size comes from the labelings'
	// own accounting: total label bits over two codes per node.
	r.add("label.cdbs_code_bits_mean", "bits", ratio(b.labelBits, 2*b.labelNodes))

	// store / pagestore
	r.add("store.ids_us_p50", "us", lt.p50("query", "store.ids")*1e3)
	r.add("pagestore.hit_ratio", "ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)))
	r.add("pagestore.misses_per_op", "count", ratio(float64(miss1-miss0), ops))
	r.add("pagestore.writebacks_per_edit", "count", ratio(float64(wb1-wb0), edits))
	r.add("pagestore.allocated_pages", "count", float64(alloc1))

	// journal / labelstore
	appendMS := histMean(a, b, "journal_append_seconds", 1e3)
	r.add("journal.append_ms_mean", "ms", appendMS)
	r.add("journal.edits_per_fsync", "count", ratio(delta(a, b, "journal_appends_total"), delta(a, b, "journal_group_commits_total")))
	syncMS := histMean(a, b, "labelstore_sync_seconds", 1e3)
	r.add("labelstore.sync_ms_mean", "ms", syncMS)
	r.add("journal.bytes_per_edit", "bytes", ratio(float64(b.diskBytes-a.diskBytes), edits))

	// follower
	r.add("follower.polls_per_s", "1/s", ratio(delta(a, b, "follower_polls_total"), secs))
	r.add("follower.ship_bytes_per_edit", "bytes", ratio(delta(a, b, "journal_ship_bytes_total"), edits))
	r.add("follower.lag_seqs_mean", "count", mean(lags))

	// xmltree
	r.add("xmltree.parse_ms", "ms", parseMS)

	// process
	cpu := func(c *counters) float64 {
		return c.rt["/cpu/classes/total:cpu-seconds"] - c.rt["/cpu/classes/idle:cpu-seconds"]
	}
	gcCPU := b.rt["/cpu/classes/gc/total:cpu-seconds"] - a.rt["/cpu/classes/gc/total:cpu-seconds"]
	r.add("process.gc_cpu_fraction", "ratio", ratio(gcCPU, cpu(b)-cpu(a)))
	r.add("process.cpu_ms_per_op", "ms", ratio(ms(b.cpu-a.cpu), ops))
	r.add("process.alloc_mb_per_op", "MB", ratio((b.rt["/gc/heap/allocs:bytes"]-a.rt["/gc/heap/allocs:bytes"])/1e6, ops))

	// Self times on the blocking path. The client's share is measured
	// per request (client span minus server span); the layers inside the
	// server come from the side path, which re-runs the request uncached,
	// so the query path charges evaluation only for result-cache misses.
	// The web layer (routing, middleware, JSON) is what the server span
	// holds beyond them, so the reconciliation ratio shows how far the
	// layers' medians add up to the end-to-end median, and a negative web
	// share shows the side path charging more than the request spent.
	miss := 1 - resHit
	q := map[string]float64{
		"client":  quantile(lt.clientSelf["query"], 0.5),
		"catalog": acquire("query"),
		"store":   lt.p50("query", "store.ids") * miss,
	}
	q["xpath"] = (lt.p50("query", "xpath.eval") - lt.p50("query", "store.ids")) * miss
	q["web"] = lt.p50("query", "web.server") - q["catalog"] - q["xpath"] - q["store"]
	ed := map[string]float64{
		"client":  quantile(lt.clientSelf["edit"], 0.5),
		"catalog": acquire("edit"),
		"dyndoc":  lt.p50("edit", "dyndoc.clone") + lt.p50("edit", "dyndoc.apply"),
		// Under Durability Always an edit is acknowledged after its
		// append and the group commit's fsync.
		"journal": appendMS + syncMS,
	}
	ed["web"] = lt.p50("edit", "web.server") - ed["catalog"] - ed["dyndoc"] - ed["journal"]
	sum := func(m map[string]float64) float64 {
		t := 0.0
		for _, v := range m {
			t += v
		}
		return t
	}
	for _, layer := range []string{"client", "web", "catalog", "xpath", "store"} {
		r.add("self.query."+layer+"_ms", "ms", q[layer])
	}
	for _, layer := range []string{"client", "web", "catalog", "dyndoc", "journal"} {
		r.add("self.edit."+layer+"_ms", "ms", ed[layer])
	}
	tq, te := quantile(traced.s.query, 0.5), quantile(traced.s.edit, 0.5)
	r.add("reconcile.query_ratio", "ratio", ratio(sum(q), tq))
	r.add("reconcile.edit_ratio", "ratio", ratio(sum(ed), te))
	r.add("trace.overhead_query_p50_ms", "ms", tq-quantile(plain.s.query, 0.5))
	r.add("trace.overhead_edit_p50_ms", "ms", te-quantile(plain.s.edit, 0.5))
}
