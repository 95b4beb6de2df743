package live

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"authteam/internal/expertgraph"
)

// pathBase is the path 0–1–2–3 with edge weights 0.5, 0.7 and 0.3.
func pathBase(tb testing.TB) *expertgraph.Graph {
	tb.Helper()
	b := expertgraph.NewBuilder(4, 3)
	b.AddNode("ana", 10, "databases")
	b.AddNode("bo", 4, "networks", "ml")
	b.AddNode("cy", 7, "ml")
	b.AddNode("dee", 12)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.7)
	b.AddEdge(2, 3, 0.3)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// Journaled remove_node records for node 1 of pathBase whose edge list
// is not node 1's adjacency {0: 0.5, 2: 0.7}.
const (
	removeNodeMissingEdge = `{"op":"remove_node","node":1,"edges":[{"v":0,"w":0.5}]}` + "\n"
	removeNodeRepeatEdge  = `{"op":"remove_node","node":1,"edges":[{"v":0,"w":0.5},{"v":0,"w":0.5}]}` + "\n"
	removeNodeWrongWeight = `{"op":"remove_node","node":1,"edges":[{"v":0,"w":0.9},{"v":2,"w":0.7}]}` + "\n"
)

// TestJournalReplayRemoveNodeEdges pins replay's check of a journaled
// remove_node edge list. A list that misses or repeats an edge would
// tombstone a node its neighbours still list, and every later
// materialization (fold, cover rebuild) would fail; such a journal must
// not open. A wrong weight is replaced by the stored one, which is what
// decremental index repair reads as the removed edge's old weight.
func TestJournalReplayRemoveNodeEdges(t *testing.T) {
	for name, rec := range map[string]string{"missing": removeNodeMissingEdge, "repeated": removeNodeRepeatEdge} {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(pathBase(t), Config{JournalPath: path}); err == nil {
			s.Close()
			t.Fatalf("%s edge: journal opened at epoch %d", name, s.Epoch())
		} else if !strings.Contains(err.Error(), "remove_node 1") {
			t.Fatalf("%s edge: unexpected error %v", name, err)
		}
	}

	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte(removeNodeWrongWeight), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, pathBase(t), Config{JournalPath: path})
	muts, _ := s.Snapshot().MutationsSince(0)
	if want := []RemovedEdge{{V: 0, W: 0.5}, {V: 2, W: 0.7}}; len(muts) != 1 || !reflect.DeepEqual(muts[0].Edges, want) {
		t.Fatalf("replayed remove_node edges %+v, want %+v", muts, want)
	}
	if _, err := s.Snapshot().Graph(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournalReplay opens arbitrary bytes as a journal over a fixed
// base. A journal may be refused, but one that opens must describe a
// graph: reopening reaches the same epoch and counts, the epoch
// materializes, and its overlay view agrees with the materialized
// graph.
func FuzzJournalReplay(f *testing.F) {
	base := pathBase(f)
	path := filepath.Join(f.TempDir(), "wal")
	s, err := Open(base, Config{JournalPath: path})
	if err != nil {
		f.Fatal(err)
	}
	id, _, err := s.AddExpert("eve", 6, []string{"ml", "vision"})
	if err != nil {
		f.Fatal(err)
	}
	auth := 20.0
	for _, op := range []func() (uint64, error){
		func() (uint64, error) { return s.AddCollaboration(id, 3, 0.2) },
		func() (uint64, error) { return s.UpdateExpert(2, &auth, []string{"databases"}) },
		func() (uint64, error) { return s.UpdateCollaboration(0, 1, 0.9) },
		func() (uint64, error) { return s.RemoveCollaboration(2, 3) },
		func() (uint64, error) { return s.RemoveExpert(1) },
	} {
		if _, err := op(); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(append([]byte(`{"journal_start":0,"term":2}`+"\n"), real...))
	f.Add(append(append([]byte(nil), real...), `{"op":"add_edge","u":0,"v":3,"w":0.1`...))
	f.Add([]byte(removeNodeMissingEdge))
	f.Add([]byte(removeNodeRepeatEdge))
	f.Add([]byte(removeNodeWrongWeight))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(base, Config{JournalPath: path})
		if err != nil {
			return
		}
		snap := s.Snapshot()
		counters := s.Counters()
		s.Close()
		gm, err := snap.Graph()
		if err != nil {
			t.Fatalf("replayed epoch %d does not materialize: %v", snap.Epoch(), err)
		}
		checkViewStructure(t, snap.View(), gm)

		s2, err := Open(base, Config{JournalPath: path})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		again := s2.Snapshot()
		if again.Epoch() != snap.Epoch() || again.NumNodes() != snap.NumNodes() ||
			again.NumEdges() != snap.NumEdges() || s2.Counters() != counters {
			t.Fatalf("reopen reached epoch %d (%d nodes, %d edges, %+v), want %d (%d, %d, %+v)",
				again.Epoch(), again.NumNodes(), again.NumEdges(), s2.Counters(),
				snap.Epoch(), snap.NumNodes(), snap.NumEdges(), counters)
		}
	})
}
