package pll

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/transform"
)

// The reference build: the sequential sweep as it was before the build
// walked a flat adjacency. It calls GraphView.Neighbors and the weight
// closure on every relaxation, keeps its heap in two parallel slices
// with pairwise swaps, and picks the quantization scale with a doubling
// loop per label entry. BuildWithOptions must produce byte-for-byte the
// index this produces.

func referenceBuild(g expertgraph.GraphView, opt Options) *Index {
	n := g.NumNodes()
	nodeAt, rankOf := landmarkOrder(g, opt.Order)
	labels := make([][]labelEntry, n)
	sc := newRefScratch(n)
	for r := 0; r < n; r++ {
		refPrunedSweep(g, opt.Weight, labels, nodeAt[r], int32(r), sc)
	}
	ix := &Index{
		n:      n,
		off:    make([]int32, n+1),
		quant:  refChooseQuant(labels),
		rankOf: rankOf,
		nodeAt: nodeAt,
	}
	for u, l := range labels {
		ix.total += len(l)
		prev := int32(-1)
		for _, e := range l {
			ix.data = appendEntry(ix.data, prev, e.rank, e.dist, ix.quant)
			prev = e.rank
		}
		ix.off[u+1] = int32(len(ix.data))
	}
	return ix
}

type refScratch struct {
	dist    []float64
	visited []bool
	hubDist []float64
	touched []expertgraph.NodeID
	h       *refPairHeap
}

func newRefScratch(n int) *refScratch {
	sc := &refScratch{
		dist:    make([]float64, n),
		visited: make([]bool, n),
		hubDist: make([]float64, n),
		h:       &refPairHeap{},
	}
	for i := 0; i < n; i++ {
		sc.dist[i] = infinity
		sc.hubDist[i] = infinity
	}
	return sc
}

func refPrunedSweep(g expertgraph.GraphView,
	weight func(u, v expertgraph.NodeID, w float64) float64,
	labels [][]labelEntry, lm expertgraph.NodeID, r int32, sc *refScratch) {

	for _, e := range labels[lm] {
		sc.hubDist[e.rank] = e.dist
	}
	sc.h.ids, sc.h.prio = sc.h.ids[:0], sc.h.prio[:0]
	sc.h.push(lm, 0)
	sc.dist[lm] = 0
	sc.touched = append(sc.touched[:0], lm)

	for len(sc.h.ids) > 0 {
		u, du := sc.h.pop()
		if sc.visited[u] || du > sc.dist[u] {
			continue
		}
		sc.visited[u] = true
		pruned := false
		for _, e := range labels[u] {
			if hd := sc.hubDist[e.rank]; hd+e.dist <= du {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		labels[u] = append(labels[u], labelEntry{rank: r, dist: du})
		g.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if weight != nil {
				w = weight(u, v, w)
			}
			if nd := du + w; nd < sc.dist[v] {
				if sc.dist[v] == infinity {
					sc.touched = append(sc.touched, v)
				}
				sc.dist[v] = nd
				sc.h.push(v, nd)
			}
			return true
		})
	}

	for _, u := range sc.touched {
		sc.dist[u] = infinity
		sc.visited[u] = false
	}
	for _, e := range labels[lm] {
		sc.hubDist[e.rank] = infinity
	}
}

// refPairHeap is the two-slice binary min-heap with pairwise swaps.
type refPairHeap struct {
	ids  []expertgraph.NodeID
	prio []float64
}

func (h *refPairHeap) push(u expertgraph.NodeID, p float64) {
	h.ids = append(h.ids, u)
	h.prio = append(h.prio, p)
	i := len(h.ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refPairHeap) pop() (expertgraph.NodeID, float64) {
	top, p := h.ids[0], h.prio[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.prio = h.prio[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.prio[l] < h.prio[smallest] {
			smallest = l
		}
		if r < last && h.prio[r] < h.prio[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return top, p
}

func (h *refPairHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}

// refChooseQuant is chooseQuant over quantWindowLoop.
func refChooseQuant(labels [][]labelEntry) float64 {
	var diff [maxQuantShift + 2]int
	for _, l := range labels {
		for _, e := range l {
			if lo, hi, ok := quantWindowLoop(e.dist); ok {
				diff[lo]++
				diff[hi+1]--
			}
		}
	}
	best, bestCount, covered := 0, 0, 0
	for k := 0; k <= maxQuantShift; k++ {
		covered += diff[k]
		if covered > bestCount {
			best, bestCount = k, covered
		}
	}
	if bestCount == 0 {
		return defaultQuantScale
	}
	return float64(uint64(1) << uint(best))
}

// quantWindowLoop finds d's scale window by doubling: d·2^k for k from
// 0 until it is integral (lo), then on while it stays below maxFixed
// (hi). ok is false for d ≤ 0 and when d·2^k reaches maxFixed, or k
// passes maxQuantShift, before it is integral.
func quantWindowLoop(d float64) (lo, hi int, ok bool) {
	if d <= 0 {
		return 0, 0, false
	}
	lo = -1
	s := d
	for k := 0; k <= maxQuantShift; k++ {
		if s >= maxFixed {
			break
		}
		if s == math.Trunc(s) {
			lo = k
			break
		}
		s *= 2
	}
	if lo < 0 {
		return 0, 0, false
	}
	hi = lo
	for hi < maxQuantShift && s*2 < maxFixed {
		hi++
		s *= 2
	}
	return lo, hi, true
}

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

// TestBuildMatchesReference is the byte-identity differential for the
// build: across graph shapes (random, natural order, zero-weight edges,
// integer and dyadic weights, the 800-author synthetic DBLP corpus
// under raw and γ=0.6 G′ weights), BuildWithOptions must equal the
// reference build byte for byte — the same label entries per rank, not
// merely the same distances.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	affine := func(u, v expertgraph.NodeID, w float64) float64 { return 0.3 + 0.7*w }
	integer := func(u, v expertgraph.NodeID, w float64) float64 { return math.Floor(8 * w) }
	dyadic := func(u, v expertgraph.NodeID, w float64) float64 { return math.Ceil(32*w) / 16 }

	corpus := dblp.Synthesize(dblp.SynthConfig{Seed: 1, Authors: 800})
	dg, _, err := dblp.BuildGraph(corpus, dblp.GraphOptions{LargestComponent: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := transform.Fit(dg, 0.6, 0.6, transform.Options{Normalize: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		g      *expertgraph.Graph
		weight func(u, v expertgraph.NodeID, w float64) float64
		order  Order
	}{
		{"path", buildPath(t, 40), nil, OrderDegree},
		{"sparse", randomGraph(rng, 120, 60), nil, OrderDegree},
		{"dense", randomGraph(rng, 80, 800), nil, OrderDegree},
		{"weighted", randomGraph(rng, 100, 300), affine, OrderDegree},
		{"tiny", buildPath(t, 2), nil, OrderDegree},
		// Natural order prunes weakly, so labels grow long and most
		// settles run the prune test against many entries.
		{"natural order", randomGraph(rand.New(rand.NewSource(11)), 70, 140), nil, OrderNatural},
		{"zero-weight edges", zeroWeightGraph(rng, 150, 400), nil, OrderDegree},
		{"integer weights", randomGraph(rng, 150, 400), integer, OrderDegree},
		{"dyadic weights", randomGraph(rng, 150, 400), dyadic, OrderDegree},
		{"dblp-800 raw", dg, nil, OrderDegree},
		{"dblp-800 G′ γ=0.6", dg, p.EdgeWeight(), OrderDegree},
	} {
		want := referenceBuild(tc.g, Options{Weight: tc.weight, Order: tc.order})
		got := BuildWithOptions(tc.g, Options{Weight: tc.weight, Order: tc.order})
		if !indexesIdentical(want, got) {
			t.Fatalf("%s: build differs from the reference (entries %d vs %d, bytes %d vs %d, quant %v vs %v)",
				tc.name, want.total, got.total, len(want.data), len(got.data), want.quant, got.quant)
		}
	}
}

// zeroWeightGraph is randomGraph with about a third of its edges at
// weight 0, so settles tie at equal distances across whole components
// of zero-weight edges.
func zeroWeightGraph(rng *rand.Rand, n, extra int) *expertgraph.Graph {
	b := expertgraph.NewBuilder(n, n+extra)
	for i := 0; i < n; i++ {
		b.AddNode("", 1)
	}
	seen := make(map[[2]expertgraph.NodeID]bool)
	add := func(u, v expertgraph.NodeID) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]expertgraph.NodeID{u, v}] {
			return
		}
		seen[[2]expertgraph.NodeID{u, v}] = true
		w := 0.0
		if rng.Intn(3) > 0 {
			w = float64(1 + rng.Intn(4))
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
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestQuantWindowMatchesLoop checks the O(1) scale window against the
// doubling loop over random bit patterns, random dyadic rationals,
// distances at and beyond maxFixed = 2^49, distances below 2^-30 and
// subnormals, plus zero, negative, infinite and NaN inputs.
func TestQuantWindowMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(d float64) {
		t.Helper()
		lo, hi, ok := quantWindow(d)
		wlo, whi, wok := quantWindowLoop(d)
		if ok != wok || (ok && (lo != wlo || hi != whi)) {
			t.Fatalf("quantWindow(%v = %#x) = (%d, %d, %v), loop says (%d, %d, %v)",
				d, math.Float64bits(d), lo, hi, ok, wlo, whi, wok)
		}
	}
	for _, d := range []float64{
		0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN(),
		1, 0.5, 1.5, math.Pi, maxFixed, maxFixed - 1, maxFixed / 2, maxFixed * 2,
		math.Ldexp(1, -30), math.Ldexp(1, -31), math.Ldexp(3, -31), math.Ldexp(1, 48) + 0.5,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	} {
		check(d)
	}
	for i := 0; i < 200000; i++ {
		check(math.Float64frombits(rng.Uint64() &^ (1 << 63))) // random bits
		check(math.Ldexp(float64(1+rng.Int63n(1<<40)), -rng.Intn(60)))
		check(math.Ldexp(1+rng.Float64(), 49+rng.Intn(900)))    // ≥ 2^49
		check(math.Ldexp(rng.Float64(), -30-rng.Intn(990)))     // < 2^-30
		check(math.Float64frombits(rng.Uint64() & (1<<52 - 1))) // subnormal
		check(rng.Float64() * math.Ldexp(1, rng.Intn(120)-60))  // typical sums
	}
}

// FuzzQuantWindow checks the O(1) scale window against the doubling
// loop for any float64: the windows agree for every positive finite
// distance, and both reject everything else.
func FuzzQuantWindow(f *testing.F) {
	for _, d := range []float64{1, 0.75, math.Pi, maxFixed - 1, maxFixed, math.Ldexp(1, -30),
		math.Ldexp(1, -31), math.SmallestNonzeroFloat64, math.MaxFloat64, 0, -2, math.Inf(1)} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d float64) {
		lo, hi, ok := quantWindow(d)
		wlo, whi, wok := quantWindowLoop(d)
		if ok != wok || (ok && (lo != wlo || hi != whi)) {
			t.Fatalf("quantWindow(%v = %#x) = (%d, %d, %v), loop says (%d, %d, %v)",
				d, math.Float64bits(d), lo, hi, ok, wlo, whi, wok)
		}
	})
}
