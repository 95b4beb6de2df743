package node

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/oracle"
	"authteam/internal/transform"
)

const testGamma, testLambda = 0.6, 0.6

// testGraph builds a connected random network of n experts: a spanning
// path plus n extra edges, random authorities and three skills.
func testGraph(t *testing.T, rng *rand.Rand, n int) *expertgraph.Graph {
	t.Helper()
	b := expertgraph.NewBuilder(n, 2*n)
	skills := []string{"databases", "networks", "ml"}
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("x%d", i), 1+rng.Float64()*30, skills[i%len(skills)])
	}
	seen := map[[2]int]bool{}
	edge := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(expertgraph.NodeID(u), expertgraph.NodeID(v), 0.05+rng.Float64())
	}
	for i := 1; i < n; i++ {
		edge(i-1, i)
	}
	for i := 0; i < n; i++ {
		edge(rng.Intn(n), rng.Intn(n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openNode(t *testing.T, g *expertgraph.Graph) *Node {
	t.Helper()
	n, err := Open(Config{Graph: g, RepairBudget: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// warm fits snap and builds both covers (CC and the γ cover) for it.
func warm(t *testing.T, n *Node, snap *live.Snapshot) {
	t.Helper()
	p, err := n.Params(snap, testGamma, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.CC, core.SACACC} {
		if n.Index(snap, p, m) == nil {
			t.Fatalf("%v: cold build returned no cover", m)
		}
	}
}

// waitIndex asks for m's cover at snap until one is current: the
// first ask may kick a background rebuild and answer nil.
func waitIndex(t *testing.T, n *Node, snap *live.Snapshot, p *transform.Params, m core.Method) *oracle.PLLOracle {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if o := n.Index(snap, p, m); o != nil {
			return o.(*oracle.PLLOracle)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v: no cover current at epoch %d after 10s (stats %+v)", m, snap.Epoch(), n.IndexStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// requireServes checks that the node's fit and covers at snap describe
// g: the fit equals a fresh fit of g, and each cover spans g's nodes
// and answers sampled distances as Dijkstra over g does.
func requireServes(t *testing.T, n *Node, snap *live.Snapshot, g *expertgraph.Graph) {
	t.Helper()
	p, err := n.Params(snap, testGamma, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Graph().NumNodes(); got != g.NumNodes() {
		t.Fatalf("fit over %d nodes, want the adopted graph's %d", got, g.NumNodes())
	}
	fresh, err := transform.Fit(g, testGamma, testLambda, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if p.NormInv(expertgraph.NodeID(u)) != fresh.NormInv(expertgraph.NodeID(u)) {
			t.Fatalf("node %d: fit disagrees with a fresh fit of the adopted graph", u)
		}
	}
	for _, m := range []core.Method{core.CC, core.SACACC} {
		ix := waitIndex(t, n, snap, p, m).Index()
		if ix.NumNodes() != g.NumNodes() {
			t.Fatalf("%v: cover over %d nodes, want the adopted graph's %d", m, ix.NumNodes(), g.NumNodes())
		}
		var weight oracle.WeightFunc
		if m != core.CC {
			weight = fresh.EdgeWeight()
		}
		ref := oracle.NewDijkstra(g, weight)
		for s := 0; s < g.NumNodes(); s += 3 {
			for v := 0; v < g.NumNodes(); v += 2 {
				got := ix.Dist(expertgraph.NodeID(s), expertgraph.NodeID(v))
				want := ref.Dist(expertgraph.NodeID(s), expertgraph.NodeID(v))
				if !distClose(got, want) {
					t.Fatalf("%v: dist(%d,%d) = %v, Dijkstra over the adopted graph %v", m, s, v, got, want)
				}
			}
		}
	}
}

// TestFollowerBootstrapLineage pins lineage keys across a bootstrap
// that adopts a base at the epoch the store already had: a fit and
// covers derived at epoch 0 over graph A must not answer for graph B,
// adopted at that same epoch 0.
func TestFollowerBootstrapLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := testGraph(t, rng, 12), testGraph(t, rng, 30)
	n := openNode(t, a)
	before := n.Store().Snapshot()
	warm(t, n, before)

	if err := n.Store().AdoptBase(b, 0, 0); err != nil {
		t.Fatal(err)
	}
	after := n.Store().Snapshot()
	if after.Epoch() != before.Epoch() {
		t.Fatalf("adopted at epoch %d, want the pre-adoption epoch %d", after.Epoch(), before.Epoch())
	}
	requireServes(t, n, after, b)
}

// TestFencedRewindLineage pins lineage keys across a fenced store's
// resync: the store rewinds onto the surviving lineage's base at an
// epoch below its head. Neither the fit memoized at that epoch of the
// old lineage nor the old head's covers may answer for the new base,
// and the covers must not be left on Dijkstra because their epoch is
// ahead of the rewound store.
func TestFencedRewindLineage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := testGraph(t, rng, 12), testGraph(t, rng, 30)
	n := openNode(t, a)
	for i := 0; i < 3; i++ {
		id, epoch, err := n.Store().AddExpert(fmt.Sprintf("old%d", i), 5, []string{"ml"})
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 1 {
			// Memoize the old lineage's fit at epoch 1, the epoch the
			// rewind lands on.
			if _, err := n.Params(n.Store().Snapshot(), testGamma, testLambda); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := n.Store().AddCollaboration(id, expertgraph.NodeID(i), 0.4); err != nil {
			t.Fatal(err)
		}
	}
	warm(t, n, n.Store().Snapshot())

	if err := n.Store().Demote(2); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().AdoptBase(b, 1, 2); err != nil {
		t.Fatal(err)
	}
	after := n.Store().Snapshot()
	if after.Epoch() != 1 {
		t.Fatalf("rewound to epoch %d, want 1", after.Epoch())
	}
	requireServes(t, n, after, b)
}

// TestConcurrentIndexLookupsAcrossRebuilds races discover-shaped
// lookups (snapshot, fit, cover) against a writer whose authority
// updates move the normalization bounds, so covers are repaired and
// rebuilt in the background while readers run. Every cover a reader
// gets must answer its own snapshot's distances. Run under -race.
func TestConcurrentIndexLookupsAcrossRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := openNode(t, testGraph(t, rng, 40))
	warm(t, n, n.Store().Snapshot())

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				snap := n.Store().Snapshot()
				p, err := n.Params(snap, testGamma, testLambda)
				if err != nil {
					t.Error(err)
					return
				}
				m := []core.Method{core.CC, core.CACC, core.SACACC}[rng.Intn(3)]
				o := n.Index(snap, p, m)
				if o == nil {
					continue // rebuilding: the caller would run Dijkstra
				}
				var weight oracle.WeightFunc
				if m != core.CC {
					weight = p.EdgeWeight()
				}
				g := snap.View()
				src := expertgraph.NodeID(rng.Intn(g.NumNodes()))
				dst := expertgraph.NodeID(rng.Intn(g.NumNodes()))
				if got, want := o.Dist(src, dst), oracle.NewDijkstra(g, weight).Dist(src, dst); !distClose(got, want) {
					t.Errorf("%v at epoch %d: dist(%d,%d) = %v, want %v", m, snap.Epoch(), src, dst, got, want)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 60; i++ {
		id, _, err := n.Store().AddExpert(fmt.Sprintf("w%d", i), 2+float64(i%9), []string{"ml"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Store().AddCollaboration(id, expertgraph.NodeID(i%40), 0.1+float64(i%7)/10); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			// A new extreme authority moves the bounds: not repairable.
			auth := 100 + float64(i)
			if _, err := n.Store().UpdateExpert(0, &auth, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Ask for both covers at every write, so the maintenance paths
		// run whatever the readers' schedule.
		snap := n.Store().Snapshot()
		p, err := n.Params(snap, testGamma, testLambda)
		if err != nil {
			t.Fatal(err)
		}
		n.Index(snap, p, core.CC)
		n.Index(snap, p, core.SACACC)
	}
	done.Store(true)
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); n.IndexStats().PendingRebuild; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background rebuild still pending after 10s")
		}
	}
	if st := n.IndexStats(); st.IncrementalRepairs == 0 || st.FullRebuilds <= 2 {
		t.Fatalf("maintenance counters %+v: want both repairs and background rebuilds", st)
	}
}
