package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// benchScheme is the labeling every workload serves: the paper's
// V-CDBS containment scheme, whose inserts relabel nothing.
const benchScheme = "V-CDBS-Containment"

// workload is one traffic mix. Every workload serves its documents with
// Durability Always and benchScheme, and drives them with one
// closed-loop client (see loop).
type workload struct {
	name   string
	plays  int  // D5 plays served, in corpus order
	merged bool // plays merged under one <plays> root, else one document each
	paged  bool // leader index on paged storage, with a follower replica
	// gogc is the collector's GOGC for the run: the setting under which
	// the workload's figures moved least from run to run (see below).
	gogc int
	// next picks the client's next operation.
	next func(g *gen) op
}

// The workloads. Each comment says why the workload exists: which
// layers it loads and which later changes it is meant to show.
var workloads = map[string]*workload{
	// tenants: the read-mostly served path. The 37 D5 plays are 37
	// documents of one catalog (about 4.8k nodes each); the client picks
	// a document with a seeded skew, 90% of operations are Q1–Q6-shaped
	// queries and 10% are edits. HTTP/JSON, the catalog pin and the plan
	// and result caches do most of the work; the snapshot clone is cheap
	// at this size and everything fits the caches (37 documents against
	// MaxOpen 64, a few dozen distinct queries per document against 256
	// cached results).
	// At GOGC 400 its edit p90 moved from run to run 2.5 times as much
	// as at the default 100, where collector pauses set the tail.
	"tenants": {name: "tenants", plays: 37, gogc: 100, next: nextTenants},
	// paged-replica: a leader with paged labels and a 64-page cache
	// holding the first 8 plays merged (about 40k index entries in
	// about 1.2k pages, far more than the cache), and a follower catalog
	// in the same process following it over HTTP. The client holds one
	// connection to each server and alternates between a leader edit
	// followed by a horizon wait on the follower, and a leader query. It
	// is the only workload on the paged index, the page cache and
	// journal shipping, so paged writes and follower latency show here
	// and nowhere else.
	// Two 40k-node clones per edit (leader and follower) made the
	// collector take a third of the CPU at GOGC 100, and where its cycles
	// fell against the requests moved the latencies from run to run
	// about twice as much as at GOGC 400.
	"paged-replica": {name: "paged-replica", plays: 8, merged: true, paged: true, gogc: 400, next: nextPaged},
}

// docSpec is one document a workload serves.
type docSpec struct {
	name string
	xml  string
}

// corpus returns the workload's documents: its plays one per document,
// or merged under one <plays> root.
func (wl *workload) corpus() []docSpec {
	plays := datagen.D5(1).Files[:wl.plays]
	if !wl.merged {
		out := make([]docSpec, len(plays))
		for i, f := range plays {
			out[i] = docSpec{name: fmt.Sprintf("play%02d", i), xml: f.String()}
		}
		return out
	}
	root := xmltree.NewElement("plays")
	for _, f := range plays {
		root.AppendChild(f.Root)
	}
	return []docSpec{{name: "plays", xml: (&xmltree.Document{Root: root}).String()}}
}

// ---------------------------------------------------------------------------
// Operations

type opKind int

const (
	opQuery opKind = iota
	opEdit
)

// op is one generated operation. Queries are fully generated here;
// an edit's concrete parent, position or target is drawn when it runs,
// from the document's pool of run-inserted nodes (see docState.nextEdit).
type op struct {
	kind  opKind
	doc   int
	path  string   // query text
	names []string // element names the query reads from the index
}

// gen is the client's seeded generator. The program under test only
// ever sees what it produces.
type gen struct {
	rng  *rand.Rand
	cum  []float64 // cumulative document weights (tenants)
	docs int       // documents, or plays a query parameter ranges over
	n    int       // operations generated so far
}

func newGen(seed int64, docs int) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed*7919 + 1)), docs: docs}
	// Document skew: document i has weight 1/(i+1)^0.8. The ranking is
	// fixed and only the draws are seeded, so every seed loads the same
	// hot documents and seeds differ in their operations, not in which
	// document sizes dominate.
	total := 0.0
	for i := 0; i < docs; i++ {
		total += math.Pow(float64(i+1), -0.8)
		g.cum = append(g.cum, total)
	}
	for i := range g.cum {
		g.cum[i] /= total
	}
	return g
}

// skewedDoc draws a document index under the skew.
func (g *gen) skewedDoc() int {
	return min(sort.SearchFloat64s(g.cum, g.rng.Float64()), g.docs-1)
}

// playQuery draws one of the six Q1–Q6 shapes of the paper over a
// single play rooted at root, with seeded positional parameters.
func (g *gen) playQuery(root string) (string, []string) {
	r := g.rng
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf("/%s/act[%d]", root, 1+r.Intn(5)), []string{"act"}
	case 1:
		return fmt.Sprintf("/%s//personae[./title]/pgroup[%d]/persona", root, 1+r.Intn(2)), []string{"pgroup", "persona"}
	case 2:
		return fmt.Sprintf("/%s/personae/persona[%d]/preceding-sibling::*", root, 1+r.Intn(12)), []string{"persona"}
	case 3:
		return fmt.Sprintf("//act[%d]/following::speaker", 1+r.Intn(5)), []string{"act", "speaker"}
	case 4:
		return fmt.Sprintf("//act[%d]/scene/speech", 1+r.Intn(5)), []string{"act", "scene", "speech"}
	default:
		return fmt.Sprintf("/%s/act[%d]//line", root, 1+r.Intn(5)), []string{"act", "line"}
	}
}

// mergedQuery draws a small-result Q1–Q3 shape over one play of a
// merged <plays> document, parameterised by play and act.
func (g *gen) mergedQuery() (string, []string) {
	r := g.rng
	play := 1 + r.Intn(g.docs)
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf("/plays/play[%d]/act[%d]", play, 1+r.Intn(5)), []string{"play", "act"}
	case 1:
		return fmt.Sprintf("/plays/play[%d]//personae[./title]/pgroup[.//grpdescr]/persona", play), []string{"play", "personae", "pgroup", "persona"}
	default:
		return fmt.Sprintf("/plays/play[%d]/personae/persona[%d]/preceding-sibling::*", play, 1+r.Intn(12)), []string{"play", "persona"}
	}
}

func nextTenants(g *gen) op {
	d := g.skewedDoc()
	if g.rng.Intn(10) == 0 {
		return op{kind: opEdit, doc: d}
	}
	path, names := g.playQuery("play")
	return op{kind: opQuery, doc: d, path: path, names: names}
}

func nextPaged(g *gen) op {
	g.n++
	if g.n%2 == 1 {
		return op{kind: opEdit}
	}
	path, names := g.mergedQuery()
	return op{kind: opQuery, path: path, names: names}
}

// finalQueries are the paper's Q1–Q6 over the workload's plays,
// evaluated at the end of every run against the naive engine.
func (wl *workload) finalQueries() []string {
	prefix := "/play"
	if wl.merged {
		prefix = "/plays/play"
	}
	return []string{
		prefix + "/act[4]",
		prefix + "//personae[./title]/pgroup[.//grpdescr]/persona",
		prefix + "/personae/persona[12]/preceding-sibling::*",
		"//act[2]/following::speaker",
		"//act/scene/speech",
		prefix + "/*//line",
	}
}

// ---------------------------------------------------------------------------
// Edits

// Edits keep each document's size steady: a document's pool of
// run-inserted subtrees is held between poolLow and poolHigh, and
// deletes only ever remove a pooled subtree, so clone cost does not
// drift with run length.
const (
	poolLow  = 4
	poolHigh = 16
)

// fragment is the small subtree insert-tree adds under a scene.
const fragment = "<speech><speaker></speaker><line></line><line></line></speech>"

// slot is an original element that edits insert under, with the child
// count it had at set-up; positions up to that count stay valid because
// the run only removes what it inserted.
type slot struct {
	id       int
	children int
}

// docState is the run's view of one served document.
type docState struct {
	name   string
	rank   []int32 // original element id -> document-order position (rankOf)
	scenes []slot  // insert-tree parents
	speech []slot  // insert-element parents
	nodes  int     // node count at set-up

	pool []int // root ids of live run-inserted subtrees
}

// nextEdit draws the next edit for the document: an insert while the
// pool is low, a delete of a pooled subtree while it is full, and a
// seeded choice between them in between. A delete takes its target out
// of the pool; an acknowledged insert is pooled with inserted.
func (ds *docState) nextEdit(r *rand.Rand) client.Edit {
	n := len(ds.pool)
	if n >= poolHigh || (n > poolLow && r.Intn(2) == 0) {
		i := r.Intn(n)
		id := ds.pool[i]
		ds.pool[i] = ds.pool[n-1]
		ds.pool = ds.pool[:n-1]
		return client.Edit{Op: "delete", Node: id}
	}
	if r.Intn(2) == 0 {
		s := ds.speech[r.Intn(len(ds.speech))]
		return client.Edit{Op: "insert-element", Parent: s.id, Pos: r.Intn(s.children + 1), Name: "line"}
	}
	s := ds.scenes[r.Intn(len(ds.scenes))]
	return client.Edit{Op: "insert-tree", Parent: s.id, Pos: r.Intn(s.children + 1), Fragment: fragment}
}

// inserted pools the root of an acknowledged insert.
func (ds *docState) inserted(id int) { ds.pool = append(ds.pool, id) }

// pooled returns one pooled node without removing it (the traced side
// path deletes it on a discarded clone), or -1.
func (ds *docState) pooled(r *rand.Rand) int {
	if len(ds.pool) == 0 {
		return -1
	}
	return ds.pool[r.Intn(len(ds.pool))]
}
