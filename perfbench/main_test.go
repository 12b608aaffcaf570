package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the tests check the output
// against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTinyRuns runs every workload briefly, untraced and traced, and
// checks that the last output line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that every output
// check passed.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("serves every workload")
	}
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for trace, want := range map[int]map[string]string{0: units(c.EndToEnd), 1: units(c.PerLayer)} {
			var out, errOut bytes.Buffer
			o := options{workload: w.Name, seed: 3, seconds: 0.6, trace: trace == 1,
				setupReps: 1, warmup: 100 * time.Millisecond, dir: filepath.Join(t.TempDir(), "runs")}
			if code := execute(o, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if !strings.HasPrefix(lines[0], "# report ") {
				t.Errorf("%s trace %d: no report line before the result", w.Name, trace)
			}
			var res struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace %d: metrics and units\n got %v\nwant %v", w.Name, trace, got, want)
			}
			// Every workload edits, so the side path must have timed
			// clones of sampled edits.
			if trace == 1 && res.Metrics["dyndoc.clone_ms_p50"].Value <= 0 {
				t.Errorf("%s: the traced side path sampled no edit", w.Name)
			}
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestChecksCatchCorruption feeds the output checks real results with
// one defect each: a duplicated id, ids out of document order, a result
// that differs from the naive engine's, and a follower document that
// differs from its leader's.
func TestChecksCatchCorruption(t *testing.T) {
	xml := workloads["tenants"].corpus()[8].xml
	paths := workloads["tenants"].finalQueries()
	naive, order, err := naiveResults(xml, paths)
	if err != nil {
		t.Fatal(err)
	}
	ids := naive[4] // Q5, a few hundred speeches
	if len(ids) < 3 {
		t.Fatalf("Q5 returned %d ids", len(ids))
	}
	if err := checkIDs(ids, order); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	if err := compareResults(ids, order, ids, order); err != nil {
		t.Fatalf("clean comparison rejected: %v", err)
	}

	dup := append(append([]int(nil), ids[:2]...), ids[1:]...)
	if checkIDs(dup, order) == nil {
		t.Error("checkIDs missed a duplicated id")
	}
	swapped := append([]int(nil), ids...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if checkIDs(swapped, order) == nil {
		t.Error("checkIDs missed ids out of document order")
	}
	// Ids the run inserted are outside the set-up ranking.
	if checkIDs(append(append([]int(nil), ids...), 1<<20, 1<<20), order) == nil {
		t.Error("checkIDs missed a duplicated inserted id")
	}
	if compareResults(dup[:len(ids)], order, ids, order) == nil {
		t.Error("compareResults missed a duplicated id")
	}
	if compareResults(ids[1:], order, ids, order) == nil {
		t.Error("compareResults missed a missing id")
	}

	if err := checkReplica(xml, xml); err != nil {
		t.Fatalf("equal replicas rejected: %v", err)
	}
	mutated := strings.Replace(xml, "<line>", "<line><line></line>", 1)
	if checkReplica(xml, mutated) == nil {
		t.Error("checkReplica missed a follower/leader mismatch")
	}
}

// TestGeneratorSeeded checks that the operation stream is a function of
// the seed alone.
func TestGeneratorSeeded(t *testing.T) {
	stream := func(seed int64) []op {
		g := newGen(seed, 37)
		var ops []op
		for i := 0; i < 200; i++ {
			ops = append(ops, nextTenants(g))
		}
		return ops
	}
	if !reflect.DeepEqual(stream(5), stream(5)) {
		t.Error("same seed gave different operations")
	}
	if reflect.DeepEqual(stream(5), stream(6)) {
		t.Error("different seeds gave the same operations")
	}
}

// TestEditsKeepSizeSteady checks the edit generator's pool bounds: a
// long run of edits never holds more than poolHigh inserted subtrees.
func TestEditsKeepSizeSteady(t *testing.T) {
	ds := &docState{name: "d", scenes: []slot{{1, 3}}, speech: []slot{{2, 4}}}
	g := newGen(9, 1)
	for i := 0; i < 20000; i++ {
		if e := ds.nextEdit(g.rng); e.Op != "delete" {
			ds.inserted(1000 + i)
		}
		if n := len(ds.pool); n > poolHigh {
			t.Fatalf("pool grew to %d after %d edits", n, i+1)
		}
	}
}
