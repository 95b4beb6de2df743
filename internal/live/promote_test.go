package live

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// TestPromoteBumpsTermAndStampsAppends drives the happy path of the
// fencing token: promotion seals the epoch, adopts the new term, and
// every subsequent append is minted under it.
func TestPromoteBumpsTermAndStampsAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s := mustOpen(t, testGraph(rng, 12), Config{JournalPath: filepath.Join(dir, "g.wal")})

	if s.Term() != 0 || s.Fenced() {
		t.Fatalf("fresh store: term %d fenced %v", s.Term(), s.Fenced())
	}
	pre, _, err := s.AddExpert("pre", 3, []string{"analytics"})
	if err != nil {
		t.Fatal(err)
	}

	sealed, perr := s.Promote(0)
	if perr != nil {
		t.Fatal(perr)
	}
	if sealed != s.Epoch() || sealed != 1 {
		t.Fatalf("sealed epoch %d, store epoch %d", sealed, s.Epoch())
	}
	if s.Term() != 1 || s.TermStart() != sealed {
		t.Fatalf("after promote: term %d start %d", s.Term(), s.TermStart())
	}

	// A promotion not beyond the current term is an error, not a reset.
	if _, err := s.Promote(1); err == nil {
		t.Fatal("promote to the current term succeeded")
	}

	// An edge off the freshly-added expert cannot collide with the
	// random seed graph.
	if _, err := s.AddCollaboration(pre, 5, 0.4); err != nil {
		t.Fatal(err)
	}
	muts, _, err := s.TailSince(context.Background(), sealed, 0)
	if err != nil || len(muts) != 1 {
		t.Fatalf("tail past seal: %d muts, %v", len(muts), err)
	}
	if muts[0].Term != 1 {
		t.Fatalf("post-promotion append minted under term %d, want 1", muts[0].Term)
	}
}

// TestStaleTermAppendFenced checks the core fencing rule: a record
// minted under an older term — a deposed leader's queued write riding
// replication — is refused with ErrFenced, while records of the current
// term and the pre-fencing term 0 still land.
func TestStaleTermAppendFenced(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := mustOpen(t, testGraph(rng, 12), Config{})

	if _, err := s.Promote(3); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Apply(Mutation{Op: OpAddEdge, U: 0, V: 7, W: 0.5, Term: 2})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale-term apply: %v, want ErrFenced", err)
	}
	var fe *FencedError
	if !errors.As(err, &fe) || fe.Term != 3 {
		t.Fatalf("fence error carries term %v, want 3", err)
	}
	// Epoch unchanged by the refusal.
	if s.Epoch() != 0 {
		t.Fatalf("fenced apply moved the epoch to %d", s.Epoch())
	}
	// Current-term and term-0 (fresh local) records still commit.
	if _, _, err := s.Apply(Mutation{Op: OpAddEdge, U: 0, V: 7, W: 0.5, Term: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddCollaboration(0, 8, 0.5); err != nil {
		t.Fatal(err)
	}
}

// TestDemotePersistsFence demotes a journaled leader and checks the
// fence holds across restart: a deposed leader that crashes and comes
// back must not resume extending its dead-end lineage.
func TestDemotePersistsFence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wal")
	g := testGraph(rng, 12)
	s := mustOpen(t, g, Config{JournalPath: path})

	if _, err := s.AddCollaboration(0, 5, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := s.Demote(5); err != nil {
		t.Fatal(err)
	}
	if !s.Fenced() || s.Term() != 5 {
		t.Fatalf("after demote: fenced %v term %d", s.Fenced(), s.Term())
	}
	if _, err := s.AddCollaboration(0, 6, 0.4); !errors.Is(err, ErrFenced) {
		t.Fatalf("append on demoted store: %v, want ErrFenced", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := s.TailSince(ctx, 0, 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("tail of demoted store: %v, want ErrFenced", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, g, Config{JournalPath: path})
	if !s2.Fenced() || s2.Term() != 5 {
		t.Fatalf("restarted deposed leader: fenced %v term %d, want fenced at 5", s2.Fenced(), s2.Term())
	}
	if _, err := s2.AddCollaboration(0, 6, 0.4); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after fenced restart: %v, want ErrFenced", err)
	}
}

// TestOrganicTermAdoption feeds a follower-shaped store a replicated
// record minted under a newer term: committing it must raise the local
// term — the side-channel-free way a replica tree converges on a new
// lineage — and persist it across restart via the journaled record.
func TestOrganicTermAdoption(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.wal")
	g := testGraph(rng, 12)
	s := mustOpen(t, g, Config{JournalPath: path})

	if _, _, err := s.Apply(Mutation{Op: OpAddEdge, U: 0, V: 7, W: 0.5, Term: 4}); err != nil {
		t.Fatal(err)
	}
	// TermStart is an exclusive bound: the adopted record committed at
	// epoch 1, so the new lineage starts *after* epoch 0.
	if s.Term() != 4 || s.TermStart() != 0 {
		t.Fatalf("after adopting record: term %d start %d, want 4 starting past 0", s.Term(), s.TermStart())
	}
	if s.Fenced() {
		t.Fatal("organic adoption fenced the store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, g, Config{JournalPath: path})
	if s2.Term() != 4 {
		t.Fatalf("replayed store term %d, want 4 from the journaled record", s2.Term())
	}
}
