package main

import (
	"math"
	"math/rand"
	"testing"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
)

// replay applies the writers' lists to a fresh store, interleaving them
// in the order pick chooses, and fails the test on any reject.
func replay(t *testing.T, c *corpus, lists [][]mutation, pick func(open []int) int) *live.Store {
	t.Helper()
	st, err := live.Open(c.g, live.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	added := make([][]expertgraph.NodeID, len(lists))
	next := make([]int, len(lists))
	for {
		var open []int
		for w := range lists {
			if next[w] < len(lists[w]) {
				open = append(open, w)
			}
		}
		if len(open) == 0 {
			return st
		}
		w := pick(open)
		m := &lists[w][next[w]]
		if _, err := m.apply(st, &added[w]); err != nil {
			t.Fatalf("writer %d mutation %d (%s) rejected: %v", w, next[w], m.kind, err)
		}
		next[w]++
	}
}

func TestGeneratedMutationsAreValid(t *testing.T) {
	c, err := newCorpus(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := c.g
	wlo, whi := base.EdgeWeightBounds()
	alo, ahi := base.InvAuthorityBounds()

	one := [][]mutation{newMutGen(c, 7, 0, 1).list(3000)}
	two := [][]mutation{newMutGen(c, 7, 0, 2).list(3000), newMutGen(c, 7, 1, 2).list(3000)}
	rng := rand.New(rand.NewSource(1))
	for name, tc := range map[string]struct {
		lists [][]mutation
		pick  func([]int) int
	}{
		"one writer":                   {one, func(open []int) int { return open[0] }},
		"two writers, one after other": {two, func(open []int) int { return open[0] }},
		"two writers, other first":     {two, func(open []int) int { return open[len(open)-1] }},
		"two writers, random order":    {two, func(open []int) int { return open[rng.Intn(len(open))] }},
	} {
		t.Run(name, func(t *testing.T) {
			st := replay(t, c, tc.lists, tc.pick)
			experts := 0
			for _, list := range tc.lists {
				for _, m := range list {
					if m.kind == opAddExpert {
						experts++
					}
				}
			}
			snap := st.Snapshot()
			v := snap.View()
			if lo, hi := v.EdgeWeightBounds(); lo < wlo || hi > whi {
				t.Errorf("edge weight bounds widened to [%v, %v] from [%v, %v]", lo, hi, wlo, whi)
			}
			if lo, hi := v.InvAuthorityBounds(); lo < alo || hi > ahi {
				t.Errorf("inverse authority bounds widened to [%v, %v] from [%v, %v]", lo, hi, alo, ahi)
			}
			if n, b := snap.NumNodes(), base.NumNodes(); n != b+experts {
				t.Errorf("%d nodes after the stream, want the base's %d plus %d added experts", n, b, experts)
			}
			if e, b := snap.NumEdges(), base.NumEdges(); e < b || e > b+b/5 {
				t.Errorf("%d edges after the stream, base has %d", e, b)
			}
		})
	}
}

// TestDerivedMix checks the mix measured on the corpus model: shares
// that sum to one, removals at the rate of adds, and every kind present.
func TestDerivedMix(t *testing.T) {
	for _, authors := range []int{400, readAuthors} {
		c, err := newCorpus(authors, corpusSeed)
		if err != nil {
			t.Fatal(err)
		}
		m := c.mix
		sum := m.addEdge + m.updateEdge + m.tick + m.removeEdge + m.addExpert
		if math.Abs(sum-1) > 1e-9 || m.addEdge != m.removeEdge {
			t.Errorf("%d authors: %v: shares sum to %v, adds and removals differ", authors, m, sum)
		}
		for name, share := range map[string]float64{"add": m.addEdge, "re-weight": m.updateEdge, "tick": m.tick,
			"new expert": m.addExpert, "triadic": m.triadic} {
			if share <= 0 || share >= 1 {
				t.Errorf("%d authors: %s share %v", authors, name, share)
			}
		}
	}
}

func TestGeneratedMix(t *testing.T) {
	c, err := newCorpus(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	list := newMutGen(c, 11, 0, 1).list(20000)
	kinds := make(map[opKind]int)
	weight := make(map[edgeRef]float64) // every edge present, with its weight
	for u := expertgraph.NodeID(0); int(u) < c.g.NumNodes(); u++ {
		c.g.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			weight[newEdgeRef(baseNode(u), baseNode(v))] = w
			return true
		})
	}
	streamAdded := make(map[edgeRef]bool)
	for _, m := range list {
		kinds[m.kind]++
		e := newEdgeRef(m.u, m.v)
		switch m.kind {
		case opAddEdge:
			if _, ok := weight[e]; ok {
				t.Fatalf("add of %v, which exists", e)
			}
			weight[e], streamAdded[e] = m.value, true
		case opRemoveEdge:
			if !streamAdded[e] {
				t.Fatalf("removal of %v, which the stream did not add", e)
			}
			delete(weight, e)
			delete(streamAdded, e)
		case opUpdateEdge:
			old, ok := weight[e]
			if !ok || old == m.value {
				t.Fatalf("re-weight of %v from %v (present %v) to %v", e, old, ok, m.value)
			}
			weight[e] = m.value
		}
	}
	// The list follows the mix: each kind's share within a point of it
	// (an expert's first collaboration counts as one of the adds).
	m := c.mix
	for k, want := range map[opKind]float64{opAddEdge: m.addEdge, opUpdateEdge: m.updateEdge, opTick: m.tick,
		opRemoveEdge: m.removeEdge, opAddExpert: m.addExpert} {
		if kinds[k] == 0 {
			t.Errorf("no %s in %d mutations", k, len(list))
		}
		if got := float64(kinds[k]) / float64(len(list)); math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.4f, mix %.4f", k, got, want)
		}
	}
}
