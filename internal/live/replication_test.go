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

func emptyGraph(t *testing.T) *expertgraph.Graph {
	t.Helper()
	g, err := expertgraph.NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitFollowerEpoch polls until the store reaches epoch (replication is
// asynchronous) or the deadline passes.
func waitFollowerEpoch(t *testing.T, st *Store, epoch uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !st.WaitEpoch(ctx, epoch) {
		t.Fatalf("follower stuck at epoch %d, want %d", st.Epoch(), epoch)
	}
}

func TestWaitEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	st := mustOpen(t, testGraph(rng, 10), Config{})
	defer st.Close()

	// Already-reached epochs return true even with a dead context.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if !st.WaitEpoch(dead, 0) {
		t.Fatal("WaitEpoch(0) on a fresh store returned false")
	}

	// An unreached epoch honors the context bound.
	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if st.WaitEpoch(short, 1) {
		t.Fatal("WaitEpoch(1) returned true with no mutation")
	}

	// A publish wakes the waiter.
	go func() {
		time.Sleep(30 * time.Millisecond)
		st.AddExpert("late", 1, []string{"s0"})
	}()
	ctx, cancel3 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel3()
	if !st.WaitEpoch(ctx, 1) {
		t.Fatal("WaitEpoch(1) missed the publish")
	}
}

func TestTailSince(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	st := mustOpen(t, testGraph(rng, 15), Config{})
	defer st.Close()
	mutateRandomly(t, st, rng, 10)

	// Ahead of the store: the tailer and the store disagree.
	if _, _, err := st.TailSince(context.Background(), st.Epoch()+1, 0); !errors.Is(err, ErrFutureEpoch) {
		t.Fatalf("future tail: %v, want ErrFutureEpoch", err)
	}

	// A bounded batch from the beginning.
	muts, epoch, err := st.TailSince(context.Background(), 0, 4)
	if err != nil || len(muts) != 4 || epoch != st.Epoch() {
		t.Fatalf("TailSince(0, 4) = %d muts, epoch %d, err %v; want 4, %d, nil", len(muts), epoch, err, st.Epoch())
	}

	// Caught up + expired context: an idle long-poll, empty and nil.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	muts, _, err = st.TailSince(short, st.Epoch(), 0)
	if err != nil || len(muts) != 0 {
		t.Fatalf("idle tail = %d muts, err %v; want 0, nil", len(muts), err)
	}

	// Caught up + a concurrent mutation: the long-poll delivers it.
	from := st.Epoch()
	go func() {
		time.Sleep(30 * time.Millisecond)
		st.AddExpert("tailed", 2, []string{"s0"})
	}()
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	muts, _, err = st.TailSince(ctx, from, 0)
	if err != nil || len(muts) != 1 || muts[0].Op != OpAddNode {
		t.Fatalf("woken tail = %+v, err %v; want the one add_node", muts, err)
	}
}

// TestTailSinceCompacted drives the store through two folds: the
// retained window (resident log + one prevLog generation) then starts
// after the first fold, so tailing from 0 must demand a base fetch.
func TestTailSinceCompacted(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	journal := filepath.Join(t.TempDir(), "g.wal")
	st := mustOpen(t, testGraph(rng, 15), Config{JournalPath: journal})
	defer st.Close()

	mutateRandomly(t, st, rng, 10)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// One fold is still bridged by prevLog.
	if _, _, err := st.TailSince(context.Background(), 0, 0); err != nil {
		t.Fatalf("tail across one fold: %v", err)
	}
	mutateRandomly(t, st, rng, 10)
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.TailSince(context.Background(), 0, 0); !errors.Is(err, ErrCompactedEpoch) {
		t.Fatalf("tail across two folds: %v, want ErrCompactedEpoch", err)
	}
	// The fold epoch itself is still tailable.
	mutateRandomly(t, st, rng, 3)
	wantRecords := int(st.Epoch() - st.BaseEpoch())
	muts, _, err := st.TailSince(context.Background(), st.BaseEpoch(), 0)
	if err != nil || len(muts) != wantRecords {
		t.Fatalf("tail from the fold epoch = %d muts, err %v; want %d, nil", len(muts), err, wantRecords)
	}
}

// TestFollowerCatchUp replicates store-to-store in one process: a
// follower starting from an empty store must bootstrap off the
// leader's base, replay the stream, and converge on the identical
// graph — then keep converging as the leader keeps mutating.
func TestFollowerCatchUp(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	leader := mustOpen(t, testGraph(rng, 20), Config{})
	defer leader.Close()
	mutateRandomly(t, leader, rng, 25)

	follower := mustOpen(t, emptyGraph(t), Config{})
	defer follower.Close()
	f := StartFollower(follower, SourceFromStore(leader), FollowerConfig{PollTimeout: 200 * time.Millisecond})
	defer f.Stop()

	waitFollowerEpoch(t, follower, leader.Epoch())
	if !equalFP(viewFingerprint(follower.Snapshot().View()), viewFingerprint(leader.Snapshot().View())) {
		t.Fatal("follower graph differs from leader after catch-up")
	}

	// Live stream: more mutations arrive while the follower tails.
	mutateRandomly(t, leader, rng, 25)
	waitFollowerEpoch(t, follower, leader.Epoch())
	if !equalFP(viewFingerprint(follower.Snapshot().View()), viewFingerprint(leader.Snapshot().View())) {
		t.Fatal("follower graph differs from leader mid-stream")
	}

	// The bootstrap adopted the leader's fold base (epoch 0 here — the
	// leader has never folded), so every epoch arrived as a record.
	// The applied counter trails the epoch publication by a few
	// instructions in the follower loop (the epoch is visible the
	// moment the group commit publishes, before Apply's future even
	// resolves), so poll briefly instead of reading it once.
	st := f.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Applied != leader.Epoch() && time.Now().Before(deadline); st = f.Stats() {
		time.Sleep(time.Millisecond)
	}
	if !st.Running || st.Applied != leader.Epoch() || st.BaseFetches != 1 {
		t.Fatalf("stats %+v, want running, %d applied, 1 bootstrap base fetch", st, leader.Epoch())
	}
	f.Stop()
	if st := f.Stats(); st.Running {
		t.Fatal("follower still running after Stop")
	}
}

// TestFollowerAppliesBacklogInGroups starts a follower behind a
// backlog of leader records. The follower commits each tail response
// as one ApplyGroup run, so it must catch up in fewer commits than
// records; a follower that applied record by record would need one
// commit each.
func TestFollowerAppliesBacklogInGroups(t *testing.T) {
	const backlog = 300
	rng := rand.New(rand.NewSource(81))
	base := testGraph(rng, 20)
	leader := mustOpen(t, base, Config{})
	for i := 0; i < backlog; i++ {
		if _, _, err := leader.AddExpert(fmt.Sprintf("e%d", i), 2, []string{"analytics"}); err != nil {
			t.Fatal(err)
		}
	}

	// Opened over the leader's base graph, the follower is already
	// seeded: it tails from epoch 0 without fetching a base.
	follower := mustOpen(t, base, Config{JournalPath: filepath.Join(t.TempDir(), "follower.wal")})
	f := StartFollower(follower, SourceFromStore(leader), FollowerConfig{PollTimeout: 200 * time.Millisecond})
	defer f.Stop()
	waitFollowerEpoch(t, follower, backlog)
	if c := follower.Commits(); c >= backlog {
		t.Fatalf("follower applied %d records in %d commits, want fewer than one per record", backlog, c)
	}
	if st := f.Stats(); st.BaseFetches != 0 {
		t.Fatalf("seeded follower fetched a base: %+v", st)
	}
	if !equalFP(viewFingerprint(follower.Snapshot().View()), viewFingerprint(leader.Snapshot().View())) {
		t.Fatal("follower graph differs from leader after catching up on the backlog")
	}
}

// TestFollowerAcrossFolds disconnects the follower, folds the leader's
// journal twice (pushing the retained window past the follower's
// epoch), and reconnects: the follower must fetch the base, adopt it,
// replay the suffix and converge — without a restart.
func TestFollowerAcrossFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	journal := filepath.Join(t.TempDir(), "leader.wal")
	leader := mustOpen(t, testGraph(rng, 20), Config{JournalPath: journal})
	defer leader.Close()
	mutateRandomly(t, leader, rng, 20)

	follower := mustOpen(t, emptyGraph(t), Config{})
	defer follower.Close()
	f := StartFollower(follower, SourceFromStore(leader), FollowerConfig{PollTimeout: 200 * time.Millisecond})
	waitFollowerEpoch(t, follower, leader.Epoch())
	f.Stop()
	behind := follower.Epoch()

	// While the follower is away: two folds, with churn in between,
	// move the retained window past it.
	mutateRandomly(t, leader, rng, 15)
	if _, err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, leader, rng, 15)
	if _, err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, leader, rng, 10)
	if _, ok := leader.Snapshot().MutationsSince(behind); ok {
		t.Fatal("test setup: the follower's epoch is still inside the retained window")
	}

	f2 := StartFollower(follower, SourceFromStore(leader), FollowerConfig{PollTimeout: 200 * time.Millisecond})
	defer f2.Stop()
	waitFollowerEpoch(t, follower, leader.Epoch())
	if !equalFP(viewFingerprint(follower.Snapshot().View()), viewFingerprint(leader.Snapshot().View())) {
		t.Fatal("follower graph differs from leader after fold-boundary catch-up")
	}
	if st := f2.Stats(); st.BaseFetches < 1 {
		t.Fatalf("stats %+v, want at least one base fetch", st)
	}
	if follower.BaseAdoptions() < 1 {
		t.Fatal("follower store recorded no base adoptions")
	}

	// Replication keeps flowing after the adoption.
	mutateRandomly(t, leader, rng, 10)
	waitFollowerEpoch(t, follower, leader.Epoch())
	if !equalFP(viewFingerprint(follower.Snapshot().View()), viewFingerprint(leader.Snapshot().View())) {
		t.Fatal("follower diverged after post-adoption stream")
	}
}

// TestFollowerDivergenceStops mutates the follower's store outside
// replication: the loop must stop with a sticky error instead of
// silently interleaving two histories.
func TestFollowerDivergenceStops(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	leader := mustOpen(t, testGraph(rng, 15), Config{})
	defer leader.Close()
	mutateRandomly(t, leader, rng, 10)

	follower := mustOpen(t, emptyGraph(t), Config{})
	defer follower.Close()
	f := StartFollower(follower, SourceFromStore(leader), FollowerConfig{PollTimeout: 100 * time.Millisecond})
	defer f.Stop()
	waitFollowerEpoch(t, follower, leader.Epoch())

	// A local write forks the follower's history ahead of the leader's.
	if _, _, err := follower.AddExpert("rogue", 1, []string{"s0"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := f.Stats(); !st.Running {
			if st.LastError == "" {
				t.Fatal("follower stopped without recording why")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower kept running on a forked store")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdoptBaseCrashWindow simulates a crash between AdoptBase's two
// file steps: the new base was renamed into place, the journal still
// holds the pre-adoption history. Open must reset the journal to the
// base epoch instead of erroring (or worse, replaying the dead
// history).
func TestAdoptBaseCrashWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	dir := t.TempDir()
	journal := filepath.Join(dir, "f.wal")

	// The follower's pre-crash state: base graph, journal of 10 records.
	base := testGraph(rng, 15)
	st, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, st, rng, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The adopted base: a different store's graph at a far epoch.
	leader := mustOpen(t, testGraph(rng, 20), Config{})
	mutateRandomly(t, leader, rng, 30)
	lsnap := leader.Snapshot()
	lg, err := lsnap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(lsnap.View())
	adoptedEpoch := lsnap.Epoch()
	leader.Close()

	// Crash window: base file updated, journal untouched.
	if err := writeBaseFile(basePath(journal), lg, adoptedEpoch, 0); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatalf("reopen in the adoption crash window: %v", err)
	}
	defer st2.Close()
	if st2.Epoch() != adoptedEpoch || st2.BaseEpoch() != adoptedEpoch {
		t.Fatalf("recovered at epoch %d (base %d), want %d", st2.Epoch(), st2.BaseEpoch(), adoptedEpoch)
	}
	if !equalFP(viewFingerprint(st2.Snapshot().View()), want) {
		t.Fatal("recovered graph is not the adopted base")
	}
	if records, _ := st2.JournalStats(); records != 0 {
		t.Fatalf("journal still holds %d dead records", records)
	}
	// And the store keeps working from there.
	if _, _, err := st2.AddExpert("post", 3, []string{"s0"}); err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != adoptedEpoch+1 {
		t.Fatalf("epoch %d after one mutation, want %d", st2.Epoch(), adoptedEpoch+1)
	}
}

// TestAdoptBasePersists checks the journaled follower round-trip: after
// AdoptBase, a restart from disk lands on the adopted epoch and graph.
func TestAdoptBasePersists(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	journal := filepath.Join(t.TempDir(), "f.wal")
	st, err := Open(emptyGraph(t), Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}

	leader := mustOpen(t, testGraph(rng, 20), Config{})
	mutateRandomly(t, leader, rng, 20)
	lsnap := leader.Snapshot()
	lg, err := lsnap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(lsnap.View())
	epoch := lsnap.Epoch()
	leader.Close()

	if err := st.AdoptBase(lg, epoch, 0); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != epoch || st.BaseAdoptions() != 1 {
		t.Fatalf("epoch %d adoptions %d after AdoptBase, want %d/1", st.Epoch(), st.BaseAdoptions(), epoch)
	}
	// Mutations append on top of the adopted base.
	if _, _, err := st.AddExpert("post", 2, []string{"s0"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(emptyGraph(t), Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Epoch() != epoch+1 || st2.BaseEpoch() != epoch {
		t.Fatalf("restart at epoch %d (base %d), want %d (%d)", st2.Epoch(), st2.BaseEpoch(), epoch+1, epoch)
	}
	sn, ok := st2.SnapshotAt(epoch)
	if !ok {
		t.Fatalf("SnapshotAt(%d) refused after restart", epoch)
	}
	if got := viewFingerprint(sn.View()); !equalFP(got, want) {
		t.Fatal("restarted store's adopted base differs")
	}
}

// TestMaintainIndexVisitBudget pins that repair has no work budget: a
// removal repair, however many labels it visits, absorbs the delta and
// agrees with a rebuild.
func TestMaintainIndexVisitBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	base := testGraph(rng, 35)
	s := mustOpen(t, base, Config{})
	defer s.Close()
	from := s.Snapshot()
	ix := pll.Build(base)

	// Remove a real edge so the repair has decremental work to do.
	var u, v expertgraph.NodeID
	found := false
	from.View().Neighbors(0, func(n expertgraph.NodeID, w float64) bool {
		u, v, found = 0, n, true
		return false
	})
	if !found {
		t.Fatal("node 0 has no edges")
	}
	if _, err := s.RemoveCollaboration(u, v); err != nil {
		t.Fatal(err)
	}
	to := s.Snapshot()

	repaired, rs, ok := MaintainIndex(ix, from, to, nil, nil, 0)
	if !ok || rs.Removed != 1 {
		t.Fatalf("unbounded repair refused: ok=%v stats=%+v", ok, rs)
	}
	g, err := to.Graph()
	if err != nil {
		t.Fatal(err)
	}
	sampleDistancesAgree(t, rng, repaired, pll.Build(g), g.NumNodes())
}
