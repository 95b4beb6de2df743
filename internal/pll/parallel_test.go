package pll

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"authteam/internal/expertgraph"
)

// indexesIdentical reports whether two frozen indexes are bit-identical
// — same packed bytes, offsets and landmark order — which implies
// identical label sets and identical stored distances.
func indexesIdentical(a, b *Index) bool {
	return a.n == b.n && a.total == b.total && a.quant == b.quant &&
		reflect.DeepEqual(a.off, b.off) &&
		bytes.Equal(a.data, b.data) &&
		reflect.DeepEqual(a.rankOf, b.rankOf) &&
		reflect.DeepEqual(a.nodeAt, b.nodeAt)
}

// TestParallelBuildBitIdentical is the parallel build's differential:
// across graph shapes, weight functions and worker counts, the
// block-parallel build must produce an index bit-identical to the
// sequential sweep — the same label entries per rank (not merely the
// same distances).
func TestParallelBuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	gamma := func(u, v expertgraph.NodeID, w float64) float64 { return 0.3 + 0.7*w }
	for _, tc := range []struct {
		name   string
		g      *expertgraph.Graph
		weight func(u, v expertgraph.NodeID, w float64) float64
	}{
		{"path", buildPath(t, 40), nil},
		{"sparse", randomGraph(rng, 120, 60), nil},
		{"dense", randomGraph(rng, 80, 800), nil},
		{"weighted", randomGraph(rng, 100, 300), gamma},
		{"tiny", buildPath(t, 2), nil},
	} {
		seq := BuildWithOptions(tc.g, Options{Weight: tc.weight})
		for _, workers := range []int{2, 3, 4, 8} {
			par := BuildWithOptions(tc.g, Options{Weight: tc.weight, Workers: workers})
			if !indexesIdentical(seq, par) {
				t.Fatalf("%s: %d-worker build differs from sequential (entries %d vs %d, bytes %d vs %d)",
					tc.name, workers, seq.total, par.total, len(seq.data), len(par.data))
			}
		}
	}
}

// TestParallelBuildRandomized widens the differential over many random
// graphs and seeds, comparing both the packed bytes and sampled
// distances against Dijkstra ground truth.
func TestParallelBuildRandomized(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(90)
		g := randomGraph(rng, n, rng.Intn(3*n))
		seq := Build(g)
		par := BuildWithOptions(g, Options{Workers: 1 + rng.Intn(7)})
		if !indexesIdentical(seq, par) {
			t.Fatalf("seed %d: parallel build differs from sequential", seed)
		}
		src := expertgraph.NodeID(rng.Intn(n))
		ref := expertgraph.Dijkstra(g, src)
		for v := 0; v < n; v++ {
			got := par.Dist(src, expertgraph.NodeID(v))
			want := ref.Dist[v]
			if math.IsInf(got, 1) && math.IsInf(want, 1) {
				continue
			}
			// A 2-hop query sums two label distances, so it can differ
			// from the Dijkstra path sum by float association — allow
			// ulp-scale slack, nothing more.
			if diff := math.Abs(got - want); diff > 1e-12*(1+want) {
				t.Fatalf("seed %d: Dist(%d,%d) = %v, want %v", seed, src, v, got, want)
			}
		}
	}
}

// TestParallelBuildNaturalOrder covers the OrderNatural path, whose
// weak pruning stresses the in-block commit filter hardest.
func TestParallelBuildNaturalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 70, 140)
	seq := BuildWithOptions(g, Options{Order: OrderNatural})
	par := BuildWithOptions(g, Options{Order: OrderNatural, Workers: 4})
	if !indexesIdentical(seq, par) {
		t.Fatal("natural-order parallel build differs from sequential")
	}
}

// TestParallelBuildOnBlock checks the block callback partitions the
// rank space exactly once, in order, and that block sizes follow
// contamination: a block that redid any rank halves the next one, a
// clean block doubles it, capped at max(8, 2·workers) = 8 here.
func TestParallelBuildOnBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 60, 90)
	nextRank, size, redoneTotal := 0, 1, 0
	ix := BuildWithOptions(g, Options{Workers: 4, OnBlock: func(lo, hi, redone int, _ time.Duration) {
		if lo != nextRank || hi <= lo {
			t.Fatalf("block [%d,%d) does not extend previous end %d", lo, hi, nextRank)
		}
		if want := min(size, g.NumNodes()-lo); hi-lo != want {
			t.Fatalf("block [%d,%d) has %d ranks, want %d", lo, hi, hi-lo, want)
		}
		if redone < 0 || redone > hi-lo {
			t.Fatalf("block [%d,%d) redid %d ranks", lo, hi, redone)
		}
		if redone > 0 {
			size = max(1, size/2)
		} else {
			size = min(8, 2*size)
		}
		redoneTotal += redone
		nextRank = hi
	}})
	if nextRank != ix.NumNodes() {
		t.Fatalf("blocks covered [0,%d), want [0,%d)", nextRank, ix.NumNodes())
	}
	if redoneTotal == 0 {
		t.Fatal("no block redid a rank, so the halving went unchecked")
	}
}

// TestParallelBuildManyBlocks is the regression test for the
// block-size overflow: blockSize used to keep doubling after hitting
// the cap, so any build needing more than 63 blocks overflowed it to
// zero and stalled the block loop forever. 1200 nodes at the 2-worker
// cap (8) needs at least 150 blocks.
func TestParallelBuildManyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 1200, 2400)
	blocks := 0
	ix := BuildWithOptions(g, Options{Workers: 2, OnBlock: func(_, _, _ int, _ time.Duration) { blocks++ }})
	if blocks <= 63 {
		t.Fatalf("only %d blocks; the regression needs more than 63", blocks)
	}
	if !indexesIdentical(ix, BuildWithOptions(g, Options{})) {
		t.Fatal("parallel build differs from sequential on a many-block graph")
	}
}
