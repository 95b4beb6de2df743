package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"authteam/internal/expertgraph"
	"authteam/internal/oracle"
	"authteam/internal/team"
)

// quantizedWeights returns g with every edge weight rounded up to a
// multiple of 1/4: many equal path costs, so the (cost, root) ranking
// leans on its root tie-break.
func quantizedWeights(t *testing.T, g *expertgraph.Graph) *expertgraph.Graph {
	t.Helper()
	b := g.Thaw(0, 0)
	for u := 0; u < g.NumNodes(); u++ {
		g.Neighbors(expertgraph.NodeID(u), func(v expertgraph.NodeID, w float64) bool {
			if expertgraph.NodeID(u) < v {
				b.UpdateEdge(expertgraph.NodeID(u), v, math.Ceil(4*w)/4)
			}
			return true
		})
	}
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameTeams fails unless got and want are the same teams in the same
// order: same root, node list, edges and skill assignment.
func sameTeams(t *testing.T, label string, got, want []*team.Team) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d teams, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Root != w.Root || !reflect.DeepEqual(g.Nodes, w.Nodes) || !reflect.DeepEqual(g.Assignment, w.Assignment) {
			t.Fatalf("%s team %d: root %d nodes %v assign %v, want root %d nodes %v assign %v",
				label, i, g.Root, g.Nodes, g.Assignment, w.Root, w.Nodes, w.Assignment)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s team %d: %+v, want %+v", label, i, g, w)
		}
	}
}

// TestTopKParallelMatchesSequential pins the merge by carried cost:
// at any worker count, with a shared PLL oracle or per-shard Dijkstra,
// TopKParallel returns exactly TopK's teams in TopK's order.
func TestTopKParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 6; trial++ {
		g, project := randomSkillGraph(rng, 60, 100, 3, 3)
		if trial%2 == 1 {
			g = quantizedWeights(t, g)
		}
		p := fitOrDie(t, g, 0.6, 0.6)
		raw := oracle.BuildPLL(g, nil)
		gp := oracle.BuildPLL(g, p.EdgeWeight())
		for _, m := range []Method{CC, CACC, SACACC} {
			idx := gp
			if m == CC {
				idx = raw
			}
			for _, shared := range []oracle.Oracle{idx, nil} {
				seq, err1 := NewDiscoverer(p, m, WithOracle(shared)).TopK(project, 4)
				for workers := 2; workers <= 4; workers++ {
					label := fmt.Sprintf("trial %d %v pll=%v workers=%d", trial, m, shared != nil, workers)
					par, err2 := TopKParallel(p, m, project, 4, workers, shared)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%s: error mismatch %v vs %v", label, err1, err2)
					}
					sameTeams(t, label, par, seq)
				}
			}
		}
	}
}

// distOnly hides every method of an oracle but Dist, so discoverers
// reach it through the per-pair probe adapter.
type distOnly struct{ o oracle.Oracle }

func (d distOnly) Dist(u, v expertgraph.NodeID) float64 { return d.o.Dist(u, v) }

// TestProbeMatchesDistOnlyOracle checks that scanning through a PLL
// oracle's source-major probe changes no team: TopK must return the
// same teams as through the same index behind a Dist-only wrapper.
func TestProbeMatchesDistOnlyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		g, project := randomSkillGraph(rng, 80, 160, 4, 3+trial%2)
		if trial%2 == 1 {
			g = quantizedWeights(t, g)
		}
		p := fitOrDie(t, g, 0.6, 0.6)
		raw := oracle.BuildPLL(g, nil)
		gp := oracle.BuildPLL(g, p.EdgeWeight())
		for _, m := range []Method{CC, CACC, SACACC} {
			idx := gp
			if m == CC {
				idx = raw
			}
			probed, err1 := NewDiscoverer(p, m, WithOracle(idx)).TopK(project, 5)
			perPair, err2 := NewDiscoverer(p, m, WithOracle(distOnly{idx})).TopK(project, 5)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d %v: error mismatch %v vs %v", trial, m, err1, err2)
			}
			sameTeams(t, fmt.Sprintf("trial %d %v", trial, m), probed, perPair)
		}
	}
}

func TestTopKParallelSmallGraphFallback(t *testing.T) {
	g, project := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	// 3 nodes with 8 workers: falls back to the sequential path.
	teams, err := TopKParallel(p, SACACC, project, 2, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(teams) == 0 {
		t.Fatal("no teams")
	}
	for _, tm := range teams {
		if err := tm.Validate(g, project); err != nil {
			t.Errorf("invalid team: %v", err)
		}
	}
}

func TestTopKParallelErrors(t *testing.T) {
	g, project := gridGraph(t)
	p := fitOrDie(t, g, 0.6, 0.6)
	if _, err := TopKParallel(p, CC, project, 0, 2, nil); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := TopKParallel(p, CC, nil, 1, 2, nil); !errors.Is(err, ErrEmptyProject) {
		t.Errorf("empty project: %v", err)
	}
}

func TestTopKParallelAllShardsFail(t *testing.T) {
	// Two disconnected pairs holding different skills: no root reaches
	// both skills, so every shard returns ErrNoTeam.
	b := expertgraph.NewBuilder(4, 2)
	a1 := b.AddNode("a1", 1, "x")
	a2 := b.AddNode("a2", 1, "x")
	c1 := b.AddNode("c1", 1, "y")
	c2 := b.AddNode("c2", 1, "y")
	b.AddEdge(a1, a2, 1)
	b.AddEdge(c1, c2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := g.SkillID("x")
	y, _ := g.SkillID("y")
	p := fitOrDie(t, g, 0.5, 0.5)
	_, err = TopKParallel(p, CC, []expertgraph.SkillID{x, y}, 1, 2, nil)
	if !errors.Is(err, ErrNoTeam) {
		t.Errorf("err = %v, want ErrNoTeam", err)
	}
}
