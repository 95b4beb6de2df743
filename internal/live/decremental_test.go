package live

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/pll"
	"authteam/internal/transform"
)

// TestDecrementalValidation pins the store-level contracts of the
// remove/re-weight mutators.
func TestDecrementalValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := mustOpen(t, testGraph(rng, 12), Config{})
	view := s.Snapshot().View()
	u, v, ok := randomEdge(rng, view)
	if !ok {
		t.Fatal("no edge to play with")
	}
	w, _ := view.EdgeWeight(u, v)

	if _, err := s.RemoveCollaboration(u, expertgraph.NodeID(99)); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("remove edge to out-of-range node: %v", err)
	}
	if _, err := s.UpdateCollaboration(u, v, -1); !errors.Is(err, ErrNegativeW) {
		t.Errorf("negative re-weight: %v", err)
	}
	if _, err := s.UpdateCollaboration(u, v, w); !errors.Is(err, ErrEmptyUpdate) {
		t.Errorf("no-op re-weight: %v", err)
	}
	if _, err := s.UpdateCollaboration(u, v, w/2); err != nil {
		t.Fatalf("re-weight: %v", err)
	}
	if got, _ := s.Snapshot().View().EdgeWeight(u, v); got != w/2 {
		t.Errorf("re-weighted edge reads %v, want %v", got, w/2)
	}

	if _, err := s.RemoveCollaboration(u, v); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := s.RemoveCollaboration(u, v); !errors.Is(err, ErrUnknownEdge) {
		t.Errorf("double removal: %v", err)
	}
	if _, err := s.UpdateCollaboration(u, v, 0.5); !errors.Is(err, ErrUnknownEdge) {
		t.Errorf("re-weight of removed edge: %v", err)
	}
	// A removed edge can be re-added.
	if _, err := s.AddCollaboration(u, v, 0.7); err != nil {
		t.Fatalf("re-add after removal: %v", err)
	}

	// Node removal tombstones: every further reference fails with
	// ErrRemovedNode, and the ID is never resurrected.
	if _, err := s.RemoveExpert(u); err != nil {
		t.Fatalf("remove expert: %v", err)
	}
	if s.Snapshot().View().ValidNode(u) {
		t.Error("tombstoned node still valid")
	}
	if _, err := s.RemoveExpert(u); !errors.Is(err, ErrRemovedNode) {
		t.Errorf("double node removal: %v", err)
	}
	if _, err := s.AddCollaboration(u, v, 0.2); !errors.Is(err, ErrRemovedNode) {
		t.Errorf("edge to tombstone: %v", err)
	}
	auth := 5.0
	if _, err := s.UpdateExpert(u, &auth, nil); !errors.Is(err, ErrRemovedNode) {
		t.Errorf("update of tombstone: %v", err)
	}
	// Edge removal/re-weight referencing a tombstoned endpoint reports
	// the tombstone (410 at the API), not a generic unknown edge.
	if _, err := s.RemoveCollaboration(u, v); !errors.Is(err, ErrRemovedNode) {
		t.Errorf("edge removal on tombstone: %v", err)
	}
	if _, err := s.UpdateCollaboration(u, v, 0.6); !errors.Is(err, ErrRemovedNode) {
		t.Errorf("edge re-weight on tombstone: %v", err)
	}

	c := s.Counters()
	if c.EdgesRemoved == 0 || c.NodesRemoved != 1 || c.EdgesUpdated != 1 {
		t.Errorf("counters: %+v", c)
	}
}

// TestRemoveNodeEmbedsEdges pins the self-contained remove_node
// record: the journaled mutation carries the node's incident edges
// (sorted by far endpoint, with their last stored weights), so replay
// and index repair never reconstruct pre-removal adjacency.
func TestRemoveNodeEmbedsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := mustOpen(t, testGraph(rng, 15), Config{})
	victim := expertgraph.NodeID(3)
	want := map[expertgraph.NodeID]float64{}
	s.Snapshot().View().Neighbors(victim, func(v expertgraph.NodeID, w float64) bool {
		want[v] = w
		return true
	})
	if len(want) == 0 {
		t.Fatal("victim is isolated; pick a better seed")
	}
	if _, err := s.RemoveExpert(victim); err != nil {
		t.Fatal(err)
	}
	muts, ok := s.Snapshot().MutationsSince(s.Epoch() - 1)
	if !ok || len(muts) != 1 || muts[0].Op != OpRemoveNode {
		t.Fatalf("unexpected tail: %+v", muts)
	}
	rec := muts[0]
	if len(rec.Edges) != len(want) {
		t.Fatalf("embedded %d edges, want %d", len(rec.Edges), len(want))
	}
	for i, e := range rec.Edges {
		if i > 0 && rec.Edges[i-1].V >= e.V {
			t.Fatalf("embedded edges not sorted: %+v", rec.Edges)
		}
		if w, ok := want[e.V]; !ok || w != e.W {
			t.Fatalf("embedded edge %+v does not match adjacency %v", e, want)
		}
	}
	if s.Snapshot().NumEdges() != s.nEdges {
		t.Fatalf("edge count drift")
	}
}

// TestJournalReplayDecremental round-trips a mixed mutation stream —
// including removals and re-weights — through a restart: the replayed
// store must land on the identical epoch and an identical graph.
func TestJournalReplayDecremental(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	base := testGraph(rng, 30)
	s := mustOpen(t, base, Config{JournalPath: path})
	mutateRandomly(t, s, rng, 150)
	epoch := s.Epoch()
	counters := s.Counters()
	fp := viewFingerprint(s.Snapshot().View())
	if counters.EdgesRemoved == 0 || counters.NodesRemoved == 0 || counters.EdgesUpdated == 0 {
		t.Fatalf("stream did not exercise decremental ops: %+v", counters)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, base, Config{JournalPath: path})
	if s2.Epoch() != epoch {
		t.Fatalf("replayed epoch %d, want %d", s2.Epoch(), epoch)
	}
	if s2.Counters() != counters {
		t.Fatalf("replayed counters %+v, want %+v", s2.Counters(), counters)
	}
	if !equalFP(viewFingerprint(s2.Snapshot().View()), fp) {
		t.Fatal("replayed graph differs from pre-restart graph")
	}
	// And the replayed state keeps mutating consistently (the edge-set
	// weights were rebuilt correctly).
	mutateRandomly(t, s2, rng, 30)
}

// TestCompactDecremental folds a journal whose delta includes
// removals: the re-based store and a cold reopen must both agree with
// the pre-fold state.
func TestCompactDecremental(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	base := testGraph(rng, 30)
	s := mustOpen(t, base, Config{JournalPath: path})
	mutateRandomly(t, s, rng, 120)
	fp := viewFingerprint(s.Snapshot().View())
	epoch := s.Epoch()
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.BaseEpoch() != epoch || !equalFP(viewFingerprint(s.Snapshot().View()), fp) {
		t.Fatal("re-base changed the observable graph")
	}
	mutateRandomly(t, s, rng, 40)
	fp2 := viewFingerprint(s.Snapshot().View())
	epoch2 := s.Epoch()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, base, Config{JournalPath: path})
	if s2.Epoch() != epoch2 || !equalFP(viewFingerprint(s2.Snapshot().View()), fp2) {
		t.Fatal("reopen after fold+churn diverged")
	}
}

// sampleDistancesAgree compares the repaired index against a fresh
// build over the `to` view on sampled pairs (and a few fixed ones).
func sampleDistancesAgree(t *testing.T, rng *rand.Rand, repaired, fresh *pll.Index, n int) {
	t.Helper()
	for i := 0; i < 400; i++ {
		u := expertgraph.NodeID(rng.Intn(n))
		v := expertgraph.NodeID(rng.Intn(n))
		got, want := repaired.Dist(u, v), fresh.Dist(u, v)
		if math.IsInf(got, 1) && math.IsInf(want, 1) {
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("dist(%d,%d): repaired %v, fresh %v", u, v, got, want)
		}
	}
}

// TestMaintainDecrementalDifferential is the MaintainIndex acceptance
// test for mixed deltas on a raw-weight index: a randomized stream of
// inserts, removals, re-weights and node retirements must repair to an
// index that agrees with a fresh build at the target epoch.
func TestMaintainDecrementalDifferential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(40 + seed))
		base := testGraph(rng, 35)
		s := mustOpen(t, base, Config{})
		from := s.Snapshot()
		ix := pll.Build(base)

		mutateRandomly(t, s, rng, 60)
		to := s.Snapshot()
		c := s.Counters()
		if c.EdgesRemoved == 0 && c.NodesRemoved == 0 {
			t.Fatalf("seed %d: stream had no removals", seed)
		}

		repaired, rs, ok := MaintainIndex(ix, from, to, nil, nil, 0)
		if !ok {
			t.Fatalf("seed %d: raw repair refused a mixed delta", seed)
		}
		if rs.Removed == 0 {
			t.Fatalf("seed %d: repair stats report no decremental work: %+v", seed, rs)
		}
		g, err := to.Graph()
		if err != nil {
			t.Fatal(err)
		}
		sampleDistancesAgree(t, rng, repaired, pll.Build(g), g.NumNodes())
		s.Close()
	}
}

// boundsPinnedGraph builds a graph whose weight and authority extremes
// are held by dedicated sentinel nodes/edges that the test never
// mutates, so every other mutation stays inside the normalization
// bounds and weighted repair stays eligible.
func boundsPinnedGraph(rng *rand.Rand, n int) *expertgraph.Graph {
	b := expertgraph.NewBuilder(n+2, 3*n)
	for i := 0; i < n; i++ {
		b.AddNode("", 2+float64(rng.Intn(20)), "s")
	}
	lo := b.AddNode("pin-lo", 1, "s")    // inv 1.0: max inverse authority
	hi := b.AddNode("pin-hi", 1000, "s") // inv 0.001: min inverse authority
	b.AddEdge(lo, hi, 0.01)              // min weight
	b.AddEdge(lo, 0, 5.0)                // max weight
	seen := map[[2]expertgraph.NodeID]bool{}
	add := func(u, v expertgraph.NodeID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]expertgraph.NodeID{u, v}] {
			return
		}
		seen[[2]expertgraph.NodeID{u, v}] = true
		b.AddEdge(u, v, 0.2+0.6*rng.Float64())
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(expertgraph.NodeID(perm[i-1]), expertgraph.NodeID(perm[i]))
	}
	for i := 0; i < n; i++ {
		add(expertgraph.NodeID(rng.Intn(n)), expertgraph.NodeID(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestMaintainWeightedDecremental drives the weighted (G') repair
// through in-bounds removals and re-weights and checks exactness
// against a fresh weighted build.
func TestMaintainWeightedDecremental(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(60 + seed))
		base := boundsPinnedGraph(rng, 30)
		s := mustOpen(t, base, Config{})
		from := s.Snapshot()
		p, err := transform.Fit(from.View(), 0.6, 0.6, transform.Options{Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		weight := p.EdgeWeight()
		ix := pll.BuildWithOptions(base, pll.Options{Weight: weight})

		// In-bounds churn only: weights inside (0.01, 5), no authority
		// changes, no sentinel edges touched.
		n := base.NumNodes() - 2
		for i := 0; i < 30; i++ {
			switch rng.Intn(3) {
			case 0:
				u, v := expertgraph.NodeID(rng.Intn(n)), expertgraph.NodeID(rng.Intn(n))
				_, _ = s.AddCollaboration(u, v, 0.2+0.6*rng.Float64())
			case 1:
				if u, v, ok := randomEdge(rng, s.Snapshot().View()); ok && int(u) < n && int(v) < n {
					_, _ = s.RemoveCollaboration(u, v)
				}
			default:
				if u, v, ok := randomEdge(rng, s.Snapshot().View()); ok && int(u) < n && int(v) < n {
					_, _ = s.UpdateCollaboration(u, v, 0.2+0.6*rng.Float64())
				}
			}
		}
		to := s.Snapshot()
		if to.Epoch() == from.Epoch() {
			t.Fatalf("seed %d: no mutations applied", seed)
		}

		// The fit at `to` must agree (bounds pinned) — then the same
		// weight function serves as both new and old.
		p2, err := transform.Fit(to.View(), 0.6, 0.6, transform.Options{Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		repaired, rs, ok := MaintainIndex(ix, from, to, p2.EdgeWeight(), weight, 0)
		if !ok {
			t.Fatalf("seed %d: weighted repair refused an in-bounds mixed delta", seed)
		}
		if rs.Removed == 0 && rs.Reweighted == 0 {
			t.Fatalf("seed %d: stats report no decremental/reweight work: %+v", seed, rs)
		}
		g, err := to.Graph()
		if err != nil {
			t.Fatal(err)
		}
		fresh := pll.BuildWithOptions(g, pll.Options{Weight: p2.EdgeWeight()})
		sampleDistancesAgree(t, rng, repaired, fresh, g.NumNodes())
		s.Close()
	}
}

// TestMaintainAuthorityReweight: a value-changing authority update on
// a weighted index is absorbed as per-incident-edge re-weights (both
// directions) when the caller supplies the old weight function — the
// case PR 2 used to reject outright.
func TestMaintainAuthorityReweight(t *testing.T) {
	for _, newAuth := range []float64{50.0 /* lighter edges */, 3.0 /* heavier edges */} {
		rng := rand.New(rand.NewSource(71))
		base := boundsPinnedGraph(rng, 25)
		s := mustOpen(t, base, Config{})
		from := s.Snapshot()
		pOld, err := transform.Fit(from.View(), 0.6, 0.6, transform.Options{Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		ix := pll.BuildWithOptions(base, pll.Options{Weight: pOld.EdgeWeight()})

		// Node 1 starts at authority in [2, 22]; both 50 and 3 stay
		// inside the pinned inverse-authority bounds (0.001, 1).
		if _, err := s.UpdateExpert(1, &newAuth, nil); err != nil {
			t.Fatal(err)
		}
		to := s.Snapshot()
		pNew, err := transform.Fit(to.View(), 0.6, 0.6, transform.Options{Normalize: true})
		if err != nil {
			t.Fatal(err)
		}
		repaired, rs, ok := MaintainIndex(ix, from, to, pNew.EdgeWeight(), pOld.EdgeWeight(), 0)
		if !ok {
			t.Fatalf("auth %v: weighted repair refused an in-bounds authority update", newAuth)
		}
		if rs.Authority != 1 {
			t.Fatalf("auth %v: stats %+v, want Authority=1", newAuth, rs)
		}
		g, err := to.Graph()
		if err != nil {
			t.Fatal(err)
		}
		fresh := pll.BuildWithOptions(g, pll.Options{Weight: pNew.EdgeWeight()})
		sampleDistancesAgree(t, rng, repaired, fresh, g.NumNodes())
		s.Close()
	}
}

// TestMaintainDeltaBornNodeWeighted is the regression test for the
// crash the end-to-end drive caught: a weighted repair whose delta
// adds a node and then removes/re-weights/tombstones edges touching
// it used to index the *old* fit's normalization arrays past their
// length (the old fit predates the node). The old weight function
// must route delta-born edges to the new fit instead.
func TestMaintainDeltaBornNodeWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	base := boundsPinnedGraph(rng, 20)
	s := mustOpen(t, base, Config{})
	from := s.Snapshot()
	pOld, err := transform.Fit(from.View(), 0.6, 0.6, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	ix := pll.BuildWithOptions(base, pll.Options{Weight: pOld.EdgeWeight()})

	// The exact crash sequence: add a node, wire it in, re-weight the
	// new edge, remove it, re-add it, tombstone the node.
	id, _, err := s.AddExpert("ada", 30, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	mustMutate := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustMutate(s.AddCollaboration(id, 3, 0.3))
	mustMutate(s.UpdateCollaboration(id, 3, 0.4))
	mustMutate(s.RemoveCollaboration(id, 3))
	mustMutate(s.AddCollaboration(id, 5, 0.25))
	mustMutate(s.RemoveExpert(id))
	to := s.Snapshot()

	pNew, err := transform.Fit(to.View(), 0.6, 0.6, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	repaired, _, ok := MaintainIndex(ix, from, to, pNew.EdgeWeight(), pOld.EdgeWeight(), 0)
	if !ok {
		t.Fatal("weighted repair refused a delta-born-node lifecycle")
	}
	g, err := to.Graph()
	if err != nil {
		t.Fatal(err)
	}
	fresh := pll.BuildWithOptions(g, pll.Options{Weight: pNew.EdgeWeight()})
	sampleDistancesAgree(t, rng, repaired, fresh, g.NumNodes())
}

// TestMaintainNoopAuthoritySkip is the regression test for the
// satellite fix: SetAuthority equal to the node's current authority
// changes no G' weight, so a weighted index must absorb it for free —
// not force a rebuild (PR 2 rejected every authority update, even
// no-ops).
func TestMaintainNoopAuthoritySkip(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	base := testGraph(rng, 20)
	s := mustOpen(t, base, Config{})
	from := s.Snapshot()
	p, err := transform.Fit(from.View(), 0.6, 0.6, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	weight := p.EdgeWeight()
	ix := pll.BuildWithOptions(base, pll.Options{Weight: weight})

	same := base.Authority(4)
	if _, err := s.UpdateExpert(4, &same, nil); err != nil {
		t.Fatal(err)
	}
	to := s.Snapshot()

	// No oldWeight supplied: a value-changing update would be refused,
	// but the no-op must be recognized and skipped.
	repaired, rs, ok := MaintainIndex(ix, from, to, weight, nil, 0)
	if !ok {
		t.Fatal("weighted repair rejected a value-unchanged authority update")
	}
	if rs.Skipped != 1 || rs.Authority != 0 {
		t.Fatalf("stats %+v, want Skipped=1 Authority=0", rs)
	}
	g, err := to.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sampleDistancesAgree(t, rng, repaired, pll.BuildWithOptions(g, pll.Options{Weight: weight}), g.NumNodes())
}

// TestMaintainWeightedExtremeRetirement is the covering-bounds payoff:
// removing the edge that holds the extreme weight — and re-authoring
// the expert holding the extreme inverse authority — used to move the
// tight normalization bounds and force a full weighted rebuild. Under
// the covering contract the bounds stay put, sameBounds holds, the
// delta routes through decremental repair, and the repaired index
// agrees with a fresh build over the widened materialized graph.
func TestMaintainWeightedExtremeRetirement(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	base := testGraph(rng, 30) // no sentinel pinning: extremes are live values
	s := mustOpen(t, base, Config{})
	from := s.Snapshot()
	p, err := transform.Fit(from.View(), 0.6, 0.6, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	weight := p.EdgeWeight()
	ix := pll.BuildWithOptions(base, pll.Options{Weight: weight})

	// Retire the max-weight edge.
	view := from.View()
	var mu, mv expertgraph.NodeID
	mw := -1.0
	for u := 0; u < view.NumNodes(); u++ {
		view.Neighbors(expertgraph.NodeID(u), func(v expertgraph.NodeID, w float64) bool {
			if expertgraph.NodeID(u) < v && w > mw {
				mu, mv, mw = expertgraph.NodeID(u), v, w
			}
			return true
		})
	}
	if _, hi := view.EdgeWeightBounds(); mw != hi {
		t.Fatalf("scan found max %v, bounds say %v", mw, hi)
	}
	if _, err := s.RemoveCollaboration(mu, mv); err != nil {
		t.Fatal(err)
	}
	// Retire the max inverse authority (the lowest-authority expert).
	lowest, lowAuth := expertgraph.NodeID(0), math.Inf(1)
	for u := 0; u < view.NumNodes(); u++ {
		if a := view.Authority(expertgraph.NodeID(u)); a < lowAuth {
			lowest, lowAuth = expertgraph.NodeID(u), a
		}
	}
	mid := lowAuth + 5
	if _, err := s.UpdateExpert(lowest, &mid, nil); err != nil {
		t.Fatal(err)
	}
	to := s.Snapshot()

	// Covering bounds must be unchanged — that is the whole point.
	if !sameBounds(from.View(), to.View()) {
		t.Fatal("covering bounds moved under extreme retirement")
	}
	p2, err := transform.Fit(to.View(), 0.6, 0.6, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	repaired, rs, ok := MaintainIndex(ix, from, to, p2.EdgeWeight(), weight, 0)
	if !ok {
		t.Fatal("weighted repair refused an extreme retirement; covering bounds should keep it repairable")
	}
	if rs.Removed != 1 || rs.Authority != 1 {
		t.Fatalf("stats %+v, want Removed=1 Authority=1", rs)
	}
	g, err := to.Graph()
	if err != nil {
		t.Fatal(err)
	}
	fresh := pll.BuildWithOptions(g, pll.Options{Weight: p2.EdgeWeight()})
	sampleDistancesAgree(t, rng, repaired, fresh, g.NumNodes())
}

// TestOverlayDecrementalBounds pins the covering contract on the
// subtractive path: removals that retire the current extreme edge
// weight (and, via node removal, the extreme authority) leave the
// bounds in place — still containing every surviving value — and the
// materialized graph widens to answer the identical bounds.
func TestOverlayDecrementalBounds(t *testing.T) {
	b := expertgraph.NewBuilder(4, 4)
	b.AddNode("low", 1, "a")   // inv 1.0: the max extreme
	b.AddNode("mid", 4, "b")   // inv 0.25
	b.AddNode("high", 10, "c") // inv 0.1: the min extreme
	b.AddNode("other", 5, "d") // inv 0.2
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.9) // max weight
	b.AddEdge(2, 3, 0.1) // min weight
	b.AddEdge(0, 3, 0.4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, g, Config{})
	if _, err := s.RemoveCollaboration(1, 2); err != nil { // retire max weight
		t.Fatal(err)
	}
	if _, err := s.RemoveExpert(2); err != nil { // retire min inverse authority
		t.Fatal(err)
	}
	snap := s.Snapshot()
	gm, err := snap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	gv := snap.View()
	if vl, vh := gv.EdgeWeightBounds(); true {
		ml, mh := gm.EdgeWeightBounds()
		if vl != ml || vh != mh {
			t.Fatalf("edge bounds: view (%v,%v) vs graph (%v,%v)", vl, vh, ml, mh)
		}
		if vl != 0.1 || vh != 0.9 {
			t.Fatalf("edge bounds (%v,%v), want covering (0.1,0.9) — retirements must not shrink them", vl, vh)
		}
	}
	if vl, vh := gv.InvAuthorityBounds(); true {
		ml, mh := gm.InvAuthorityBounds()
		if vl != ml || vh != mh {
			t.Fatalf("inv bounds: view (%v,%v) vs graph (%v,%v)", vl, vh, ml, mh)
		}
		if vl != 0.1 || vh != 1.0 {
			t.Fatalf("inv bounds (%v,%v), want covering (0.1,1.0) — tombstones must not shrink them", vl, vh)
		}
	}
}

// TestCompactorWatermark is the regression test for the poll-only
// compactor: with an hour-long poll interval, a write burst crossing
// the record trigger must still fold promptly, via the watermark
// signal Apply sends on the compactor's wake channel.
func TestCompactorWatermark(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	s := mustOpen(t, testGraph(rng, 20), Config{JournalPath: filepath.Join(t.TempDir(), "wal")})
	comp, err := s.StartCompactor(CompactorConfig{
		Interval:   time.Hour, // the poll alone would never fire in this test
		MinRecords: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer comp.Stop()

	mutateRandomly(t, s, rng, 64)
	deadline := time.Now().Add(5 * time.Second)
	for s.Compactions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watermark signal did not trigger a fold within 5s (poll interval is 1h)")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := comp.Stats(); st.Wakeups == 0 {
		t.Errorf("fold happened but no watermark wakeup recorded: %+v", st)
	}
	if s.BaseEpoch() == 0 {
		t.Error("fold did not re-base the store")
	}
}
