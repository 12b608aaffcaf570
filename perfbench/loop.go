package main

import (
	"fmt"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/dyndoc"
	"repro/internal/xmltree"
)

// visibleWait bounds one horizon wait; a wait that times out counts as
// a failed operation.
const visibleWait = 10 * time.Second

// maxProblems caps the messages kept per kind.
const maxProblems = 20

// samples is what one client recorded during one phase.
type samples struct {
	query, edit, visible []float64 // latencies, ms
	attempted, failed    int64
	edits, queries       int64    // completed
	ids                  int64    // ids returned by completed queries
	problems             []string // failed output checks
	errs                 []string // failed operations
}

func (s *samples) problem(format string, args ...any) {
	s.problems = capped(s.problems, fmt.Sprintf(format, args...))
}

// fail counts a failed operation.
func (s *samples) fail(format string, args ...any) {
	s.failed++
	s.errs = capped(s.errs, fmt.Sprintf(format, args...))
}

func capped(list []string, msgs ...string) []string {
	for _, m := range msgs {
		if len(list) < maxProblems {
			list = append(list, m)
		}
	}
	return list
}

// loop is the closed-loop client: it sends an operation, waits for the
// reply, checks it and sends the next.
type loop struct {
	wl     *workload
	env    *env
	g      *gen
	lead   *benchClient
	ldocs  []*client.Doc
	follow *benchClient // paged-replica: the connection to the follower
	fdocs  []*client.Doc
	frag   *xmltree.Node // the insert-tree fragment, for the side path

	// Per phase.
	s   *samples
	tr  *tracer // nil when untraced
	ops int
}

// newLoop opens the client's connection to the leader (and to the
// follower) and its handle on every document.
func newLoop(o options, wl *workload, e *env) (*loop, error) {
	frag, err := xmltree.ParseString(fragment)
	if err != nil {
		return nil, err
	}
	l := &loop{wl: wl, env: e, frag: frag.Root, g: newGen(o.seed, wl.plays)}
	if l.lead, l.ldocs, err = connect(e.lead, e.docs); err == nil && e.follow != nil {
		l.follow, l.fdocs, err = connect(e.follow, e.docs)
	}
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// connect opens a connection to s and a handle on every document.
func connect(s *server, docs []*docState) (*benchClient, []*client.Doc, error) {
	bc, err := newBenchClient(s.url)
	if err != nil {
		return nil, nil, err
	}
	out, err := openDocs(bc, docs)
	return bc, out, err
}

func openDocs(bc *benchClient, docs []*docState) ([]*client.Doc, error) {
	out := make([]*client.Doc, len(docs))
	for i, ds := range docs {
		d, err := bc.c.Open(ds.name)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func (l *loop) close() {
	if l.lead != nil {
		l.lead.close()
	}
	if l.follow != nil {
		l.follow.close()
	}
}

// phase is one measured (or warm-up) stretch of load.
type phase struct {
	s    samples
	wall time.Duration
	cpu  time.Duration // process CPU time the phase used
}

// runPhase drives the loop for d, tracing when tr is set, and returns
// after its last operation has finished.
func runPhase(l *loop, d time.Duration, tr *tracer) *phase {
	e := l.env
	for _, s := range []*server{e.lead, e.follow} {
		if s != nil {
			s.tracer.Store(tr)
		}
	}
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	l.s, l.tr = &samples{}, tr
	for time.Now().Before(deadline) {
		l.do(l.wl.next(l.g))
	}
	p := &phase{wall: time.Since(start), cpu: processCPU() - cpu0}
	for _, s := range []*server{e.lead, e.follow} {
		if s != nil {
			s.tracer.Store(nil)
		}
	}
	p.s, l.tr = *l.s, nil
	return p
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// do runs one operation and checks its reply.
func (l *loop) do(o op) {
	ds := l.env.docs[o.doc]
	s := l.s
	s.attempted++
	l.ops++
	side := l.tr != nil && l.ops%sideEvery == 0
	var root uint64
	if l.tr != nil {
		root = l.tr.newID()
		l.lead.cur.Store(root)
	}
	start := time.Now()
	switch o.kind {
	case opQuery:
		ids, err := l.ldocs[o.doc].Query(o.path)
		end := time.Now()
		l.lead.cur.Store(0)
		if err != nil {
			s.fail("query %s on %s: %v", o.path, ds.name, err)
			return
		}
		s.queries++
		s.query = append(s.query, ms(end.Sub(start)))
		s.ids += int64(len(ids))
		if err := checkIDs(ids, ds.rank); err != nil {
			s.problem("query %s on %s: %v", o.path, ds.name, err)
		}
		if l.tr != nil {
			l.tr.add(span{ID: root, Name: "client.query", Start: l.tr.at(start), End: l.tr.at(end)})
			if side {
				l.sideQuery(ds, o, root)
			}
		}
	case opEdit:
		e := ds.nextEdit(l.g.rng)
		ack, err := l.ldocs[o.doc].Edit(e)
		end := time.Now()
		l.lead.cur.Store(0)
		insert := e.Op != "delete"
		if err != nil {
			s.fail("%s on %s: %v", e.Op, ds.name, err)
			return
		}
		for _, r := range ack.Results {
			if r.Relabeled != 0 {
				s.problem("%s on %s relabeled %d nodes", e.Op, ds.name, r.Relabeled)
			}
		}
		if insert {
			if len(ack.Results) != 1 || len(ack.Results[0].IDs) == 0 {
				s.failed++
				s.problem("%s on %s: ack without ids", e.Op, ds.name)
				return
			}
			ds.inserted(ack.Results[0].IDs[0])
		}
		s.edits++
		s.edit = append(s.edit, ms(end.Sub(start)))
		if l.tr != nil {
			l.tr.add(span{ID: root, Name: "client.edit", Start: l.tr.at(start), End: l.tr.at(end)})
		}
		// Visibility: with a follower, the edit is visible once the
		// follower's horizon reaches the acknowledged sequence. Without
		// one, the leader serves the reads and acknowledges an edit only
		// once it is durable, so the ack itself is the visibility point.
		if l.fdocs == nil {
			s.visible = append(s.visible, ms(end.Sub(start)))
		} else {
			if _, ok, err := l.fdocs[o.doc].FollowHorizon(ack.Seq, visibleWait); err != nil || !ok {
				s.fail("horizon %d on %s not reached: %v", ack.Seq, ds.name, err)
				return
			}
			s.visible = append(s.visible, ms(time.Since(start)))
		}
		if side {
			l.sideEdit(ds, e, root)
		}
	}
}

// sideQuery re-runs a sampled query through the layers' public
// functions on the pinned document: the catalog pin, an uncached
// evaluation on the snapshot and the index reads it starts from.
func (l *loop) sideQuery(ds *docState, o op, root uint64) {
	l.side(ds, root, func(d *dyndoc.Document) {
		t0 := time.Now()
		_, err := d.QueryString(o.path)
		l.tr.add(span{Name: "xpath.eval", Parent: root, Start: l.tr.at(t0), End: l.tr.at(time.Now())})
		if err != nil {
			l.s.problem("side-path query %s: %v", o.path, err)
		}
		for _, name := range o.names {
			t0 := time.Now()
			_ = d.Store().IDs(name)
			l.tr.add(span{Name: "store.ids", Parent: root, Start: l.tr.at(t0), End: l.tr.at(time.Now())})
		}
	})
}

// sideEdit re-runs a sampled edit on a discarded clone of the pinned
// snapshot: the clone, then the same edit applied to it. A delete's
// target is already gone, so the clone deletes another pooled node.
func (l *loop) sideEdit(ds *docState, e client.Edit, root uint64) {
	l.side(ds, root, func(d *dyndoc.Document) {
		t0 := time.Now()
		c, err := d.Clone()
		t1 := time.Now()
		l.tr.add(span{Name: "dyndoc.clone", Parent: root, Start: l.tr.at(t0), End: l.tr.at(t1)})
		if err != nil {
			l.s.problem("side-path clone: %v", err)
			return
		}
		switch e.Op {
		case "insert-element":
			_, _, err = c.InsertElement(e.Parent, e.Pos, e.Name)
		case "insert-tree":
			_, _, err = c.InsertTree(e.Parent, e.Pos, l.frag)
		default:
			id := ds.pooled(l.g.rng)
			if id < 0 {
				return
			}
			t1 = time.Now()
			// Another client may have inserted the node after this
			// snapshot or deleted it before: then there is nothing to
			// time, and nothing wrong.
			if _, err := c.DeleteSubtree(id); err != nil {
				return
			}
		}
		l.tr.add(span{Name: "dyndoc.apply", Parent: root, Start: l.tr.at(t1), End: l.tr.at(time.Now())})
		if err != nil {
			l.s.problem("side-path %s: %v", e.Op, err)
		}
	})
}

// side pins the document through the catalog, runs fn on its latest
// snapshot and records the pin's acquire and its release as two
// catalog.pin spans.
func (l *loop) side(ds *docState, root uint64, fn func(d *dyndoc.Document)) {
	t0 := time.Now()
	pin, err := l.env.lead.cat.Acquire(ds.name)
	t1 := time.Now()
	if err != nil {
		l.s.problem("side-path acquire %s: %v", ds.name, err)
		return
	}
	l.tr.add(span{Name: "catalog.pin", Parent: root, Start: l.tr.at(t0), End: l.tr.at(t1)})
	_ = pin.Handle().Shared().Snapshot(func(d *dynxml.LiveDocument) error {
		fn(d)
		return nil
	})
	t2 := time.Now()
	pin.Release()
	l.tr.add(span{Name: "catalog.pin", Parent: root, Start: l.tr.at(t2), End: l.tr.at(time.Now())})
}
