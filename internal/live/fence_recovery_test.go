package live

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/pll"
)

// TestApplyGroupAbortsOnMemberFailure pins the all-or-nothing contract
// of a replicated group run: the first record to fail validation aborts
// every record sharing its commit batch and every later one, leaving
// the store — and its journal — at a clean prefix boundary, never with
// a suffix committed at epochs shifted down by the dropped record.
func TestApplyGroupAbortsOnMemberFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wal")
	g := testGraph(rng, 10)
	s := mustOpen(t, g, Config{JournalPath: path})

	grp := []Mutation{
		{Op: OpAddNode, Name: "g1", Authority: 2},
		{Op: OpAddEdge, U: 0, V: 99, W: 0.5}, // invalid: unknown node
		{Op: OpAddNode, Name: "g3", Authority: 3},
		{Op: OpAddNode, Name: "g4", Authority: 4},
	}
	last, applied, err := s.ApplyGroup(grp)
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("group with invalid member: %v, want ErrUnknownNode", err)
	}
	// Only a prefix that landed in an *earlier* commit batch may stick
	// (here at most the first record, if the committer raced ahead of
	// the enqueue); everything from the failure's own batch onward must
	// abort. In particular the records after the bad one never commit —
	// the old behavior committed them at epochs shifted down by one.
	if applied > 1 {
		t.Fatalf("applied %d records of a failed group, want at most the pre-failure batch prefix (1)", applied)
	}
	if got := s.Epoch(); got != uint64(applied) || (applied > 0 && last != uint64(applied)) {
		t.Fatalf("epoch %d / last %d after %d applied: the surviving prefix must be contiguous", got, last, applied)
	}
	if n := s.Snapshot().NumNodes(); n != 10+applied {
		t.Fatalf("node count %d after aborted group, want %d", n, 10+applied)
	}

	// The journal agrees: a replay lands at the same clean prefix, not
	// at a misaligned history that silently includes g3/g4.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, g, Config{JournalPath: path})
	defer s2.Close()
	if s2.Epoch() != uint64(applied) || s2.Snapshot().NumNodes() != 10+applied {
		t.Fatalf("replayed store: epoch %d nodes %d, want %d and %d",
			s2.Epoch(), s2.Snapshot().NumNodes(), applied, 10+applied)
	}

	// A clean group still commits whole, from wherever the prefix ended.
	base := s2.Epoch()
	last, n, err := s2.ApplyGroup([]Mutation{
		{Op: OpAddNode, Name: "ok1", Authority: 2},
		{Op: OpAddEdge, U: 0, V: expertgraph.NodeID(10 + applied), W: 0.4},
	})
	if err != nil || n != 2 || last != base+2 {
		t.Fatalf("clean group after abort: applied %d last %d err %v, want 2 at %d", n, last, err, base+2)
	}
}

// TestAdoptBaseRewindsFencedStore pins the failover-resync exception to
// AdoptBase's "never behind the store" rule: a fenced store adopting a
// base of the surviving lineage (term at least its fence term) may
// rewind — its suffix past the fence is divergent history whose
// discard is the point — while an un-fenced store, or a fenced store
// offered a base of a lineage older than the one that fenced it, still
// refuses.
func TestAdoptBaseRewindsFencedStore(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := mustOpen(t, testGraph(rng, 10), Config{})
	defer s.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := s.AddExpert(fmt.Sprintf("old%d", i), 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	newBase := testGraph(rng, 5)

	// Un-fenced: a base behind the store is a stale source, refused.
	if err := s.AdoptBase(newBase, 1, 0); err == nil {
		t.Fatal("un-fenced store adopted a base behind its epoch")
	}

	// Fenced by term 2, offered a base of term 1: that lineage did not
	// depose this store; rewinding onto it would lose the fence's
	// guarantee. Still refused.
	if err := s.Demote(2); err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptBase(newBase, 1, 1); err == nil {
		t.Fatal("fenced store adopted a behind-epoch base of an older term")
	}
	if !s.Fenced() || s.Epoch() != 3 {
		t.Fatalf("refused adoption changed the store: fenced %v epoch %d", s.Fenced(), s.Epoch())
	}

	// Fenced by term 2, offered the surviving lineage's base (term 2,
	// epoch 1 < 3): the rewind is allowed, the fence clears, and the
	// store is writable on the new lineage.
	if err := s.AdoptBase(newBase, 1, 2); err != nil {
		t.Fatalf("fenced store refused the surviving lineage's base: %v", err)
	}
	if s.Fenced() || s.Epoch() != 1 || s.Term() != 2 {
		t.Fatalf("after rewind: fenced %v epoch %d term %d, want clear, 1, 2", s.Fenced(), s.Epoch(), s.Term())
	}
	if n := s.Snapshot().NumNodes(); n != 5 {
		t.Fatalf("rewound store kept %d nodes, want the adopted base's 5", n)
	}
	if _, epoch, err := s.AddExpert("new", 3, nil); err != nil || epoch != 2 {
		t.Fatalf("write after rewind: epoch %d, %v", epoch, err)
	}
	tctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	muts, _, err := s.TailSince(tctx, 1, 0)
	if err != nil || len(muts) != 1 || muts[0].Term != 2 {
		t.Fatalf("post-rewind tail: %d muts (%v), want one record minted under term 2", len(muts), err)
	}
}

// TestMaintainRefusesAcrossAdoption pins AdoptBase's "history does not
// bridge an adoption" rule for index repair, in the two shapes where
// epochs alone cannot tell: a bootstrap that adopts the leader's base
// at the very epoch (0) of the empty graph it replaces, and a fenced
// store that rewinds below its old head and then rolls forward past
// it. Either way MutationsSince finds a window for the anchor's epoch,
// but the logged mutations did not grow the adopted state out of the
// anchor's, so repair must refuse and leave the caller to rebuild.
func TestMaintainRefusesAcrossAdoption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	empty, err := expertgraph.NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap: empty store at epoch 0 adopts a base at epoch 0.
	s := mustOpen(t, empty, Config{})
	pre := s.Snapshot()
	preIx := pll.Build(empty)
	if err := s.AdoptBase(testGraph(rng, 10), 0, 0); err != nil {
		t.Fatal(err)
	}
	adopted := s.Snapshot()
	if _, err := s.AddCollaboration(0, 2, 0.6); err != nil && !errors.Is(err, ErrDuplicateEdge) {
		t.Fatal(err)
	}
	if _, _, err := s.AddExpert("late", 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := MaintainIndex(preIx, pre, s.Snapshot(), nil, nil, 0); ok {
		t.Error("repair bridged the bootstrap adoption at epoch 0")
	}
	// Within the adopted lineage repair works as usual.
	ag, err := adopted.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := MaintainIndex(pll.Build(ag), adopted, s.Snapshot(), nil, nil, 0); !ok {
		t.Error("repair refused a delta inside the adopted lineage")
	}

	// Fenced rewind: head at epoch 3, rewind to 1, roll forward to 4.
	f := mustOpen(t, testGraph(rng, 10), Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := f.AddExpert(fmt.Sprintf("old%d", i), 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	head := f.Snapshot()
	hg, err := head.Graph()
	if err != nil {
		t.Fatal(err)
	}
	headIx := pll.Build(hg)
	if err := f.Demote(2); err != nil {
		t.Fatal(err)
	}
	if err := f.AdoptBase(testGraph(rng, 5), 1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := f.AddExpert(fmt.Sprintf("new%d", i), 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Epoch() <= head.Epoch() {
		t.Fatalf("store at epoch %d, want past the old head %d", f.Epoch(), head.Epoch())
	}
	if _, _, ok := MaintainIndex(headIx, head, f.Snapshot(), nil, nil, 0); ok {
		t.Error("repair bridged a fenced rewind past the old head")
	}
}
