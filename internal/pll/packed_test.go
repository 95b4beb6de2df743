package pll

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"authteam/internal/expertgraph"
)

// TestPackedEncodingRoundTrip drives appendEntry/labelCursor over
// adversarial distance values: zeros, integers, dyadic fractions that
// quantize exactly, and arbitrary float64s that must fall back to the
// raw encoding bit-for-bit.
func TestPackedEncodingRoundTrip(t *testing.T) {
	dists := []float64{
		0, 1, 2, 10, 65536, 1.0 / 65536, 3 + 1.0/65536, 0.5, 0.25,
		0.1, 0.3333333333333333, math.Pi, 1e-12, 1e12, 7.25e9,
		math.Nextafter(1, 2), float64(1<<50) + 0.5,
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		nEntries := 1 + rng.Intn(20)
		entries := make([]labelEntry, 0, nEntries)
		rank := int32(rng.Intn(3))
		for i := 0; i < nEntries; i++ {
			d := dists[rng.Intn(len(dists))]
			if rng.Intn(3) == 0 {
				d = rng.Float64() * 100
			}
			entries = append(entries, labelEntry{rank: rank, dist: d})
			rank += int32(1 + rng.Intn(1000))
		}
		var data []byte
		prev := int32(-1)
		for _, e := range entries {
			data = appendEntry(data, prev, e.rank, e.dist, defaultQuantScale)
			prev = e.rank
		}
		c := labelCursor{data: data, pos: 0, end: len(data), rank: -1, quant: defaultQuantScale}
		for i, e := range entries {
			if !c.next() {
				t.Fatalf("trial %d: cursor ended at entry %d/%d", trial, i, nEntries)
			}
			if c.rank != e.rank || math.Float64bits(c.dist) != math.Float64bits(e.dist) {
				t.Fatalf("trial %d entry %d: got (%d,%v) want (%d,%v)",
					trial, i, c.rank, c.dist, e.rank, e.dist)
			}
		}
		if c.next() {
			t.Fatalf("trial %d: cursor overran %d entries", trial, nEntries)
		}
	}
}

// TestPackedDistMatchesUnpacked compares the packed merge-join against
// a straight merge over the unpacked entries for every pair of a
// random graph — distances must be bit-identical.
func TestPackedDistMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 60, 120)
	ix := Build(g)
	labels := ix.unpackLabels()
	unpackedDist := func(u, v expertgraph.NodeID) float64 {
		if u == v {
			return 0
		}
		lu, lv := labels[u], labels[v]
		best := infinity
		i, j := 0, 0
		for i < len(lu) && j < len(lv) {
			switch {
			case lu[i].rank == lv[j].rank:
				if d := lu[i].dist + lv[j].dist; d < best {
					best = d
				}
				i++
				j++
			case lu[i].rank < lv[j].rank:
				i++
			default:
				j++
			}
		}
		return best
	}
	for u := 0; u < 60; u++ {
		for v := 0; v < 60; v++ {
			got := ix.Dist(expertgraph.NodeID(u), expertgraph.NodeID(v))
			want := unpackedDist(expertgraph.NodeID(u), expertgraph.NodeID(v))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dist(%d,%d): packed %v vs unpacked %v", u, v, got, want)
			}
		}
	}
}

// TestPackedShrink pins the compression claim the index exists for:
// the packed label store must be at least 35% smaller than the
// unpacked []labelEntry form on a representative random graph.
func TestPackedShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 300, 900)
	s := Build(g).Stats()
	if s.PackedBytes == 0 || s.UnpackedBytes == 0 {
		t.Fatalf("degenerate byte stats: %+v", s)
	}
	shrink := 1 - float64(s.PackedBytes)/float64(s.UnpackedBytes)
	if shrink < 0.35 {
		t.Errorf("packed labels shrink %.1f%%, want ≥ 35%% (packed %d, unpacked %d)",
			100*shrink, s.PackedBytes, s.UnpackedBytes)
	}
}

// TestDynamicRoundTripPacked pins the unpack→repair→Freeze cycle: a
// freeze with no intervening mutations must reproduce the packed form
// byte-identically.
func TestDynamicRoundTripPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 50, 100)
	ix := Build(g)
	frozen := NewDynamic(ix, nil).Freeze()
	if !indexesIdentical(ix, frozen) {
		t.Fatal("NewDynamic+Freeze round trip changed the packed index")
	}
}

// TestQuantChooser pins the per-index scale chooser on hand-built
// entry sets where the best scale is known.
func TestQuantChooser(t *testing.T) {
	entries := func(dists ...float64) [][]labelEntry {
		l := make([]labelEntry, len(dists))
		for i, d := range dists {
			l[i] = labelEntry{rank: int32(i), dist: d}
		}
		return [][]labelEntry{l}
	}
	cases := []struct {
		name   string
		labels [][]labelEntry
		want   float64
	}{
		{"empty", nil, defaultQuantScale},
		{"zeros only", entries(0, 0), defaultQuantScale},
		{"irrational", entries(math.Pi, math.Sqrt2, 1e-12), defaultQuantScale},
		{"integers", entries(1, 7, 42), 1},
		{"halves beat integers", entries(1, 2, 0.5, 1.5), 2},
		{"huge integers need scale 1", entries(1e10, 3e10, 5e10), 1},
		{"fine dyadics", entries(1.0/(1<<20), 3.0/(1<<20)), 1 << 20},
		{"majority wins", entries(0.25, 0.75, 1.25, math.Pi), 4},
	}
	for _, tc := range cases {
		if got := chooseQuant(tc.labels); got != tc.want {
			t.Errorf("%s: chooseQuant = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestQuantLargeDistancesPackFixed is the regression the per-index
// scale exists for: a graph whose distances are integers too large for
// the old global 2^16 scale (dist·2^16 ≥ 2^49 falls back to raw
// floats) must now choose scale 1 and pack every entry fixed-point,
// still answering bit-exact distances.
func TestQuantLargeDistancesPackFixed(t *testing.T) {
	const w = 1e10 // integer edge weight; path distances reach 39e10 ≈ 2^38.5
	n := 40
	b := expertgraph.NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddNode("", 1)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(expertgraph.NodeID(i-1), expertgraph.NodeID(i), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g)
	if ix.quant != 1 {
		t.Fatalf("quant = %v, want 1 for huge integer distances", ix.quant)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := w * math.Abs(float64(u-v))
			if got := ix.Dist(expertgraph.NodeID(u), expertgraph.NodeID(v)); got != want {
				t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	// Every nonzero entry must have taken the fixed path: header (≤2
	// bytes for these rank deltas) + uvarint(dist) ≤ 6 bytes, versus 9+
	// for a float fallback. Byte budget proves no entry fell back.
	if max := ix.total * 8; len(ix.data) >= max {
		t.Errorf("packed %d bytes for %d entries — float fallbacks slipped in", len(ix.data), ix.total)
	}
	// And the index must survive a serialization round trip with its
	// scale intact.
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		t.Fatalf("Write: %v", err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !indexesIdentical(ix, loaded) {
		t.Fatal("v3 round trip changed the index")
	}
}
