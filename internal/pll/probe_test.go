package pll

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"authteam/internal/expertgraph"
)

// mixedGraph builds a connected random graph of n nodes plus a
// separate path of three nodes, so some pairs are disconnected. Half
// the edge weights are multiples of 1/8, whose path sums pack as exact
// fixed-point label entries; the rest are arbitrary floats, whose sums
// fall back to raw float64 entries.
func mixedGraph(rng *rand.Rand, n, extra int) *expertgraph.Graph {
	b := expertgraph.NewBuilder(n+3, n+extra+2)
	for i := 0; i < n+3; i++ {
		b.AddNode("", 1)
	}
	seen := make(map[[2]expertgraph.NodeID]bool)
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
		w := 0.05 + rng.Float64()
		if rng.Intn(2) == 0 {
			w = float64(1+rng.Intn(16)) / 8
		}
		b.AddEdge(u, v, w)
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		add(expertgraph.NodeID(perm[i-1]), expertgraph.NodeID(perm[i]))
	}
	for i := 0; i < extra; i++ {
		add(expertgraph.NodeID(rng.Intn(n)), expertgraph.NodeID(rng.Intn(n)))
	}
	add(expertgraph.NodeID(n), expertgraph.NodeID(n+1))
	add(expertgraph.NodeID(n+1), expertgraph.NodeID(n+2))
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// entryKinds counts the packed label entries of each distance kind.
func entryKinds(ix *Index) [3]int {
	var kinds [3]int
	for u := 0; u < ix.n; u++ {
		c := ix.cursor(expertgraph.NodeID(u))
		for c.pos < c.end {
			h, _ := binary.Uvarint(c.data[c.pos:])
			kinds[h&3]++
			c.next()
		}
	}
	return kinds
}

// checkProbe compares every probe distance with Index.Dist bit for
// bit, over all ordered pairs including u = v, with sources and targets
// in random order. Two probes share the work, as two scans would, so
// each reuses both its loaded sources and its decoded targets.
func checkProbe(t *testing.T, rng *rand.Rand, ix *Index, label string) {
	t.Helper()
	probes := []*Probe{ix.NewProbe(), ix.NewProbe()}
	for i, u := range rng.Perm(ix.NumNodes()) {
		p := probes[i%2]
		src := expertgraph.NodeID(u)
		p.Source(src)
		for _, v := range rng.Perm(ix.NumNodes()) {
			dst := expertgraph.NodeID(v)
			got, want := p.To(dst), ix.Dist(src, dst)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: probe(%d→%d) = %v (%#x), Dist = %v (%#x)",
					label, src, dst, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestProbeMatchesDist is the probe's property test: over random
// weighted graphs with a disconnected component, raw and G′-style
// weights, labels mixing zero, fixed-point and raw-float entries, and
// indexes produced by DynamicIndex repair, every probe distance equals
// Index.Dist bit for bit.
func TestProbeMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gprime := func(u, v expertgraph.NodeID, w float64) float64 {
		return 0.01*float64(u%7) + 0.01*float64(v%7) + 2*w
	}
	var total [3]int
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(40)
		g := mixedGraph(rng, n, n)
		for _, weight := range []func(u, v expertgraph.NodeID, w float64) float64{nil, gprime} {
			ix := BuildWithOptions(g, Options{Weight: weight})
			if !math.IsInf(ix.Dist(0, expertgraph.NodeID(n)), 1) {
				t.Fatalf("trial %d: component not disconnected", trial)
			}
			kinds := entryKinds(ix)
			for k := range total {
				total[k] += kinds[k]
			}
			checkProbe(t, rng, ix, "built")

			// Repair: join the separate path to the main component and
			// add a shortcut, then remove an edge of the original graph.
			// Every repaired state is probed, each against its own graph.
			d := NewDynamic(ix, weight)
			if weight != nil {
				d.SetAltWeight(weight)
			}
			x := expertgraph.NodeID(1 + rng.Intn(n-1))
			for !math.IsNaN(edgeWeight(g, 0, x)) {
				x = expertgraph.NodeID(1 + rng.Intn(n-1))
			}
			g2 := applyToBuilder(g, func(b *expertgraph.Builder) {
				b.AddEdge(expertgraph.NodeID(n-1), expertgraph.NodeID(n), 0.375)
				b.AddEdge(0, x, 0.2+rng.Float64())
			})
			for _, e := range [][2]expertgraph.NodeID{{expertgraph.NodeID(n - 1), expertgraph.NodeID(n)}, {0, x}} {
				d.InsertEdge(g2, e[0], e[1], edgeWeight(g2, e[0], e[1]))
			}
			checkProbe(t, rng, d.Freeze(), "inserted")
			e := graphEdges(g)[rng.Intn(n-1)]
			u, v, w := expertgraph.NodeID(e[0]), expertgraph.NodeID(e[1]), e[2]
			g3 := applyToBuilder(g2, func(b *expertgraph.Builder) { b.RemoveEdge(u, v) })
			if weight != nil {
				w = weight(u, v, w)
			}
			d.RemoveEdge(g3, u, v, w)
			checkProbe(t, rng, d.Freeze(), "removed")
		}
	}
	for k, c := range total {
		if c == 0 {
			t.Fatalf("no label entries of kind %d across the trials (%v)", k, total)
		}
	}
}

func edgeWeight(g *expertgraph.Graph, u, v expertgraph.NodeID) float64 {
	w := math.NaN()
	g.Neighbors(u, func(x expertgraph.NodeID, xw float64) bool {
		if x == v {
			w = xw
			return false
		}
		return true
	})
	return w
}
