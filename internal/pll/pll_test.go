package pll

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"authteam/internal/expertgraph"
)

func buildPath(t *testing.T, n int) *expertgraph.Graph {
	t.Helper()
	b := expertgraph.NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddNode("", 1)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(expertgraph.NodeID(i-1), expertgraph.NodeID(i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(rng *rand.Rand, n, extra int) *expertgraph.Graph {
	b := expertgraph.NewBuilder(n, n+extra)
	for i := 0; i < n; i++ {
		b.AddNode("", 1)
	}
	type pair struct{ u, v expertgraph.NodeID }
	seen := make(map[pair]bool)
	add := func(u, v expertgraph.NodeID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			return
		}
		seen[pair{u, v}] = true
		b.AddEdge(u, v, 0.05+rng.Float64())
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

func TestPathGraphDistances(t *testing.T) {
	g := buildPath(t, 10)
	ix := Build(g)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			want := math.Abs(float64(u - v))
			if got := ix.Dist(expertgraph.NodeID(u), expertgraph.NodeID(v)); got != want {
				t.Errorf("Dist(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestSelfDistance(t *testing.T) {
	g := buildPath(t, 5)
	ix := Build(g)
	for u := 0; u < 5; u++ {
		if d := ix.Dist(expertgraph.NodeID(u), expertgraph.NodeID(u)); d != 0 {
			t.Errorf("Dist(%d,%d) = %v, want 0", u, u, d)
		}
	}
}

func TestDisconnected(t *testing.T) {
	b := expertgraph.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddNode("", 1)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g)
	if d := ix.Dist(0, 2); !math.IsInf(d, 1) {
		t.Errorf("cross-component Dist = %v, want +Inf", d)
	}
	if d := ix.Dist(2, 3); d != 1 {
		t.Errorf("intra-component Dist = %v, want 1", d)
	}
}

func TestMatchesDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := randomGraph(rng, n, n)
		ix := Build(g)
		for trial := 0; trial < 5; trial++ {
			src := expertgraph.NodeID(rng.Intn(n))
			ref := expertgraph.Dijkstra(g, src)
			for v := 0; v < n; v++ {
				got := ix.Dist(src, expertgraph.NodeID(v))
				if math.Abs(got-ref.Dist[v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNaturalOrderMatchesDegreeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 50, 80)
	degIx := BuildWithOptions(g, Options{Order: OrderDegree})
	natIx := BuildWithOptions(g, Options{Order: OrderNatural})
	for trial := 0; trial < 300; trial++ {
		u := expertgraph.NodeID(rng.Intn(50))
		v := expertgraph.NodeID(rng.Intn(50))
		d1, d2 := degIx.Dist(u, v), natIx.Dist(u, v)
		if math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("order-dependent distance: Dist(%d,%d) degree=%v natural=%v",
				u, v, d1, d2)
		}
	}
}

func TestDegreeOrderShrinksLabels(t *testing.T) {
	// A star graph: degree order indexes the hub first, giving tiny
	// labels; natural order starting from a leaf cannot prune as well.
	n := 50
	b := expertgraph.NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddNode("", 1)
	}
	hub := expertgraph.NodeID(n - 1) // highest ID so natural order does it last
	for i := 0; i < n-1; i++ {
		b.AddEdge(expertgraph.NodeID(i), hub, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	deg := BuildWithOptions(g, Options{Order: OrderDegree}).Stats()
	nat := BuildWithOptions(g, Options{Order: OrderNatural}).Stats()
	if deg.TotalEntries >= nat.TotalEntries {
		t.Errorf("degree order should shrink labels: degree=%d natural=%d",
			deg.TotalEntries, nat.TotalEntries)
	}
	if deg.AvgLabelSize > 2.1 {
		t.Errorf("star graph with hub-first order should have ~2 entry labels, got %v",
			deg.AvgLabelSize)
	}
}

func TestReweightedBuild(t *testing.T) {
	g := buildPath(t, 6)
	// Double every edge during construction; distances must double too.
	ix := BuildWithOptions(g, Options{
		Weight: func(u, v expertgraph.NodeID, w float64) float64 { return 2 * w },
	})
	if d := ix.Dist(0, 5); d != 10 {
		t.Errorf("reweighted Dist(0,5) = %v, want 10", d)
	}
}

// TestStats checks the statistics against per-label counts, for a
// built index, its Write/Read round trip and a DynamicIndex freeze
// (Stats reads the longest label recorded by packIndex or Read).
func TestStats(t *testing.T) {
	g := buildPath(t, 8)
	ix := Build(g)
	s := ix.Stats()
	if s.Nodes != 8 {
		t.Errorf("Stats.Nodes = %d, want 8", s.Nodes)
	}
	if s.TotalEntries == 0 || s.AvgLabelSize == 0 || s.MaxLabelSize == 0 {
		t.Errorf("degenerate stats: %+v", s)
	}
	if s.String() == "" {
		t.Error("Stats.String should be non-empty")
	}
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Repair the index for a chord (0, 7) of the path.
	b := expertgraph.NewBuilder(8, 8)
	for i := 0; i < 8; i++ {
		b.AddNode("", 1)
	}
	for i := 1; i < 8; i++ {
		b.AddEdge(expertgraph.NodeID(i-1), expertgraph.NodeID(i), 1)
	}
	b.AddEdge(0, 7, 0.5)
	chorded, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(ix, nil)
	d.InsertEdge(chorded, 0, 7, 0.5)
	for name, x := range map[string]*Index{"built": ix, "read": loaded, "repaired": d.Freeze()} {
		sum, longest := 0, 0
		for u := 0; u < x.NumNodes(); u++ {
			l := x.LabelSize(expertgraph.NodeID(u))
			sum += l
			longest = max(longest, l)
		}
		if s := x.Stats(); sum != s.TotalEntries || longest != s.MaxLabelSize {
			t.Errorf("%s: label sizes sum %d, max %d; Stats says %d, %d",
				name, sum, longest, s.TotalEntries, s.MaxLabelSize)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 60)
	ix := Build(g)
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		t.Fatalf("Write: %v", err)
	}
	ix2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for trial := 0; trial < 200; trial++ {
		u := expertgraph.NodeID(rng.Intn(40))
		v := expertgraph.NodeID(rng.Intn(40))
		d1, d2 := ix.Dist(u, v), ix2.Dist(u, v)
		if d1 != d2 && !(math.IsInf(d1, 1) && math.IsInf(d2, 1)) {
			t.Fatalf("round-trip distance mismatch at (%d,%d): %v vs %v", u, v, d1, d2)
		}
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("reading garbage should fail")
	}
}

// FuzzRead feeds arbitrary bytes to Read. Read must never panic, and
// any index it returns must answer Dist, LabelSize and probe queries
// for every node pair without panicking: the query path decodes labels
// without bounds checks, so Read is where damaged files must stop. The
// seeds are a valid file for a 40-node index, the same file cut in
// half, and the same file with bit 7 of its 86th-last byte flipped,
// which keeps the gob well-formed but runs a label past the end of the
// label store.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, Build(randomGraph(rand.New(rand.NewSource(42)), 40, 80))); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-86] ^= 0x80
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := ix.NumNodes()
		p := ix.NewProbe()
		for u := 0; u < n; u++ {
			ix.LabelSize(expertgraph.NodeID(u))
			p.Source(expertgraph.NodeID(u))
			for v := 0; v < n; v++ {
				ix.Dist(expertgraph.NodeID(u), expertgraph.NodeID(v))
				p.To(expertgraph.NodeID(v))
			}
		}
	})
}

func TestEmptyGraphIndex(t *testing.T) {
	g, err := expertgraph.NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g)
	if ix.NumNodes() != 0 {
		t.Errorf("NumNodes = %d, want 0", ix.NumNodes())
	}
}

func TestSingleNode(t *testing.T) {
	b := expertgraph.NewBuilder(1, 0)
	b.AddNode("only", 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g)
	if d := ix.Dist(0, 0); d != 0 {
		t.Errorf("Dist(0,0) = %v, want 0", d)
	}
}
