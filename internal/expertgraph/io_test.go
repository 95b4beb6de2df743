package expertgraph

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestSaveLoadFile(t *testing.T) {
	g := buildDiamond(t)
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Error("reading garbage should fail")
	}
}

// TestReadMalformed feeds Read well-formed gob streams whose arrays do
// not fit together. Each used to panic with an index out of range while
// the graph was rebuilt; each must be an error.
func TestReadMalformed(t *testing.T) {
	cases := map[string]func(f *flatGraph){
		"short skill offsets": func(f *flatGraph) { f.NodeSkOff = f.NodeSkOff[:len(f.Nodes)] },
		"skill past table":    func(f *flatGraph) { f.NodeSk[0] = SkillID(len(f.SkillNames)) },
		"short EdgeV":         func(f *flatGraph) { f.EdgeV = f.EdgeV[:len(f.EdgeV)-1] },
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, buildDiamond(t)); err != nil {
				t.Fatal(err)
			}
			var f flatGraph
			if err := gob.NewDecoder(&buf).Decode(&f); err != nil {
				t.Fatal(err)
			}
			damage(&f)
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&buf); err == nil {
				t.Fatal("malformed stream decoded without error")
			}
		})
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 100, 150)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	assertGraphsEqual(t, g, g2)
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node count %d != %d", a.NumNodes(), b.NumNodes())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge count %d != %d", a.NumEdges(), b.NumEdges())
	}
	if a.NumSkills() != b.NumSkills() {
		t.Fatalf("skill count %d != %d", a.NumSkills(), b.NumSkills())
	}
	for u := NodeID(0); int(u) < a.NumNodes(); u++ {
		if a.Node(u) != b.Node(u) {
			t.Fatalf("node %d record mismatch: %+v vs %+v", u, a.Node(u), b.Node(u))
		}
		as, bs := a.Skills(u), b.Skills(u)
		if len(as) != len(bs) {
			t.Fatalf("node %d skills differ", u)
		}
		for i := range as {
			if a.SkillName(as[i]) != b.SkillName(bs[i]) {
				t.Fatalf("node %d skill %d name mismatch", u, i)
			}
		}
		// Adjacency round-trips with identical weights.
		type edge struct {
			v NodeID
			w float64
		}
		var ae, be []edge
		a.Neighbors(u, func(v NodeID, w float64) bool { ae = append(ae, edge{v, w}); return true })
		b.Neighbors(u, func(v NodeID, w float64) bool { be = append(be, edge{v, w}); return true })
		if len(ae) != len(be) {
			t.Fatalf("node %d degree mismatch", u)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("node %d edge %d mismatch: %+v vs %+v", u, i, ae[i], be[i])
			}
		}
	}
}
