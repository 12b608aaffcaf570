package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/containment"
	"repro/internal/dyndoc"
	"repro/internal/keys"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// checkIDs checks one query reply: no id twice, and the ids of
// original elements strictly increasing in document order. The run
// never moves an original element, so their set-up order (rank, indexed
// by id, -1 for non-elements) holds at every snapshot; the order of ids
// the run inserted is checked at the end instead. The check allocates
// only for inserted ids, so it takes little CPU from the server it
// shares the machine with.
func checkIDs(ids []int, rank []int32) error {
	last := int32(-1)
	var added []int
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("negative id %d", id)
		}
		if id >= len(rank) || rank[id] < 0 {
			added = append(added, id)
			continue
		}
		if rank[id] <= last {
			return fmt.Errorf("id %d out of document order or repeated", id)
		}
		last = rank[id]
	}
	sort.Ints(added)
	for i := 1; i < len(added); i++ {
		if added[i] == added[i-1] {
			return fmt.Errorf("id %d returned twice", added[i])
		}
	}
	return nil
}

// rankOf indexes a document-order element list by id: the position of
// each element, -1 for ids that are not in the list.
func rankOf(elems []int) []int32 {
	n := 0
	for _, id := range elems {
		n = max(n, id+1)
	}
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = -1
	}
	for i, id := range elems {
		rank[id] = int32(i)
	}
	return rank
}

// compareResults checks a served reply against the naive engine's: the
// same elements, by document position, in the same strictly increasing
// order. Both sides' ids are mapped through their own document's rank.
func compareResults(served []int, servedRank []int32, naive []int, naiveRank []int32) error {
	if len(served) != len(naive) {
		return fmt.Errorf("%d ids served, naive engine finds %d", len(served), len(naive))
	}
	at := func(rank []int32, id int) int32 {
		if id < 0 || id >= len(rank) {
			return -1
		}
		return rank[id]
	}
	last := int32(-1)
	for i := range served {
		rs := at(servedRank, served[i])
		if rs < 0 {
			return fmt.Errorf("served id %d is not a live element", served[i])
		}
		if rs <= last {
			return fmt.Errorf("served id %d out of document order or repeated", served[i])
		}
		last = rs
		if rn := at(naiveRank, naive[i]); rs != rn {
			return fmt.Errorf("result %d is element %d in document order, naive engine says %d", i, rs, rn)
		}
	}
	return nil
}

// checkReplica compares the follower's document with the leader's at
// the same horizon.
func checkReplica(leaderXML, followerXML string) error {
	if leaderXML == followerXML {
		return nil
	}
	n := min(len(leaderXML), len(followerXML))
	i := 0
	for i < n && leaderXML[i] == followerXML[i] {
		i++
	}
	return fmt.Errorf("follower XML differs from the leader's at byte %d (lengths %d and %d)", i, len(leaderXML), len(followerXML))
}

// naiveResults evaluates the paths with the naive xpath.Engine over a
// fresh parse of xml and returns each path's ids plus the document
// order of the parse's elements.
func naiveResults(xml string, paths []string) ([][]int, []int32, error) {
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		return nil, nil, err
	}
	lab, err := containment.New(keys.VCDBS(), doc)
	if err != nil {
		return nil, nil, err
	}
	eng, err := xpath.NewEngine(doc, lab)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]int, len(paths))
	for i, p := range paths {
		q, err := xpath.Parse(p)
		if err != nil {
			return nil, nil, err
		}
		if out[i], err = eng.Eval(q); err != nil {
			return nil, nil, fmt.Errorf("naive %s: %w", p, err)
		}
	}
	return out, rankOf(eng.Candidates("*")), nil
}

// finalChecks runs after the load has stopped: every document's Q1–Q6
// replies against the naive engine over its own XML, no relabeling, the
// document size still steady, and a follower equal to its leader at
// the leader's horizon. Each failure is recorded on res.
func finalChecks(res *result, wl *workload, e *env) error {
	paths := wl.finalQueries()
	var follow *benchClient
	if e.follow != nil {
		var err error
		if follow, err = newBenchClient(e.follow.url); err != nil {
			return err
		}
		defer follow.close()
	}
	drift := 0
	for _, ds := range e.docs {
		d, err := e.admin.c.Open(ds.name)
		if err != nil {
			return err
		}
		xml, err := d.XML()
		if err != nil {
			return err
		}
		var stats dynxml.HandleStats
		var liveRank []int32
		err = e.pinned(ds.name, func(h *dynxml.Handle, doc *dyndoc.Document) error {
			stats = h.Stats()
			liveRank = rankOf(doc.Store().Elems())
			return nil
		})
		if err != nil {
			return err
		}
		if stats.Relabeled != 0 {
			res.problem("%s: %d nodes relabeled", ds.name, stats.Relabeled)
		}
		drift = max(drift, abs(stats.Nodes-ds.nodes))
		naive, naiveRank, err := naiveResults(xml, paths)
		if err != nil {
			return fmt.Errorf("%s: %w", ds.name, err)
		}
		for i, p := range paths {
			served, err := d.Query(p)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", ds.name, p, err)
			}
			if err := compareResults(served, liveRank, naive[i], naiveRank); err != nil {
				res.problem("%s: Q%d %s: %v", ds.name, i+1, p, err)
			}
		}
		if follow != nil {
			if err := compareFollower(d, follow, ds.name, xml); err != nil {
				res.problem("%s: %v", ds.name, err)
			}
		}
	}
	// Pools hold at most poolHigh fragments of at most fragmentNodes,
	// inserts in flight included (see docState.nextEdit).
	if limit := poolHigh * fragmentNodes; drift > limit {
		res.problem("document size drifted by %d nodes (limit %d)", drift, limit)
	}
	res.report.SizeDrift = drift
	return nil
}

// fragmentNodes is the node count of fragment.
var fragmentNodes = strings.Count(fragment, "</")

// compareFollower waits for the follower to reach the leader's current
// horizon and compares the two documents there.
func compareFollower(lead *client.Doc, follow *benchClient, name, leaderXML string) error {
	st, err := lead.Stats()
	if err != nil {
		return err
	}
	if st.Journal == nil {
		return fmt.Errorf("leader reports no journal")
	}
	fd, err := follow.c.Open(name)
	if err != nil {
		return err
	}
	if _, ok, err := fd.FollowHorizon(st.Journal.Seq, 30*time.Second); err != nil || !ok {
		return fmt.Errorf("follower did not reach horizon %d: %v", st.Journal.Seq, err)
	}
	fxml, err := fd.XML()
	if err != nil {
		return err
	}
	return checkReplica(leaderXML, fxml)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
