package live

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"authteam/internal/expertgraph"
)

// TestGroupCommitSoak hammers the group-commit pipeline with many
// concurrent writers and readers: every mutation must receive a
// distinct per-op epoch (the batch boundary is invisible in epoch
// numbering), read-your-writes must hold the instant Apply returns,
// and a killed-and-restarted store must replay the batched journal to
// the identical graph. Run it under -race.
func TestGroupCommitSoak(t *testing.T) {
	const (
		writers      = 8
		opsPerWriter = 60
		total        = writers * opsPerWriter
		baseNodes    = writers * (opsPerWriter - 1)
	)
	rng := rand.New(rand.NewSource(71))
	base := testGraph(rng, baseNodes)
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	// Sync makes each commit pay a real fsync, so mutations queue while
	// one is in flight and batches form from arrival concurrency alone.
	s := mustOpen(t, base, Config{JournalPath: path, Sync: true})

	var (
		done      atomic.Bool
		reads     atomic.Int64
		writersWg sync.WaitGroup
		readersWg sync.WaitGroup
		epochMu   sync.Mutex
	)
	seen := make(map[uint64]bool, total)
	errCh := make(chan error, writers+2)

	// Readers: snapshot counters must always agree with each other and
	// epochs must be monotone per reader.
	for r := 0; r < 2; r++ {
		readersWg.Add(1)
		go func() {
			defer readersWg.Done()
			var last uint64
			for !done.Load() {
				sn := s.Snapshot()
				if sn.Epoch() < last {
					errCh <- errors.New("snapshot epoch went backwards")
					return
				}
				last = sn.Epoch()
				gv := sn.View()
				if gv.NumNodes() != sn.NumNodes() {
					errCh <- errors.New("view node count disagrees with snapshot")
					return
				}
				reads.Add(1)
			}
		}()
	}

	// Writers: each registers one fresh expert, then wires it to a
	// disjoint range of base nodes — a fresh endpoint can never collide
	// with a pre-existing edge, so every op succeeds and the only
	// coordination is the commit pipeline itself.
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			var hub expertgraph.NodeID
			for i := 0; i < opsPerWriter; i++ {
				var epoch uint64
				var err error
				if i == 0 {
					hub, epoch, err = s.AddExpert("soak", 3, []string{"analytics"})
				} else {
					v := expertgraph.NodeID(w*(opsPerWriter-1) + i - 1)
					epoch, err = s.AddCollaboration(hub, v, 0.25)
				}
				if err != nil {
					errCh <- err
					return
				}
				// Read-your-writes: the published snapshot must already
				// cover this op's epoch.
				if got := s.Snapshot().Epoch(); got < epoch {
					errCh <- errors.New("Apply returned before its epoch was published")
					return
				}
				epochMu.Lock()
				dup := seen[epoch]
				seen[epoch] = true
				epochMu.Unlock()
				if dup {
					errCh <- errors.New("duplicate epoch handed to two mutations")
					return
				}
			}
		}(w)
	}

	writersWg.Wait()
	done.Store(true)
	readersWg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The epochs handed out must be exactly 1..total: per-op-absolute
	// numbering with no gaps or reuse across batch boundaries.
	if len(seen) != total {
		t.Fatalf("distinct epochs %d, want %d", len(seen), total)
	}
	for e := uint64(1); e <= total; e++ {
		if !seen[e] {
			t.Fatalf("epoch %d never handed out", e)
		}
	}
	if s.Epoch() != total {
		t.Fatalf("final epoch %d, want %d", s.Epoch(), total)
	}
	if s.Commits() == 0 || s.Commits() > total {
		t.Fatalf("commits = %d for %d ops", s.Commits(), total)
	}
	if rec, _ := s.JournalStats(); rec != total {
		t.Fatalf("journal records %d, want %d", rec, total)
	}
	t.Logf("group-commit soak: %d ops in %d commits (%.1f ops/commit), %d reads",
		total, s.Commits(), float64(total)/float64(s.Commits()), reads.Load())

	wantG, err := s.Snapshot().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: batched appends must replay identically to per-op ones.
	s2 := mustOpen(t, base, Config{JournalPath: path})
	if s2.Epoch() != total {
		t.Fatalf("replayed epoch %d, want %d", s2.Epoch(), total)
	}
	g2, err := s2.Snapshot().Graph()
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, wantG, g2)
}

// prepared wraps ms as queued requests, exactly as Apply enqueues
// them, so a test can hand commitBatch a batch of its choosing instead
// of hoping concurrent writers happen to share one.
func prepared(ms ...Mutation) []*applyReq {
	batch := make([]*applyReq, len(ms))
	for i, m := range ms {
		batch[i] = &applyReq{m: m, done: make(chan applyResult, 1)}
	}
	return batch
}

// settle collects every request's result after commitBatch returned.
func settle(t *testing.T, batch []*applyReq) []applyResult {
	t.Helper()
	out := make([]applyResult, len(batch))
	for i, r := range batch {
		select {
		case out[i] = <-r.done:
		default:
			t.Fatalf("op %d was never settled", i)
		}
	}
	return out
}

// TestGroupCommitBatching pins what one group commit does with a batch
// of N ops: one commit and one journal group, per-op epochs in batch
// order, and a journal that replays to the identical graph.
func TestGroupCommitBatching(t *testing.T) {
	const ops = 24
	rng := rand.New(rand.NewSource(72))
	base := testGraph(rng, ops+1)
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	s := mustOpen(t, base, Config{JournalPath: path})

	// A fresh expert wired to every base node: no op can collide with
	// an existing edge, so all N must commit.
	ms := []Mutation{{Op: OpAddNode, Name: "hub", Authority: 4, Skills: []string{"analytics"}}}
	hub := expertgraph.NodeID(base.NumNodes())
	for v := 0; v < ops-1; v++ {
		ms = append(ms, Mutation{Op: OpAddEdge, U: hub, V: expertgraph.NodeID(v), W: 0.25})
	}
	batch := prepared(ms...)
	s.commitBatch(batch)
	for i, res := range settle(t, batch) {
		if res.err != nil {
			t.Fatalf("op %d: %v", i, res.err)
		}
		if res.epoch != uint64(i+1) {
			t.Fatalf("op %d got epoch %d, want %d", i, res.epoch, i+1)
		}
	}
	if s.Epoch() != ops || s.Commits() != 1 {
		t.Fatalf("epoch %d, commits %d after one batch of %d ops, want %d and 1", s.Epoch(), s.Commits(), ops, ops)
	}
	if rec, _ := s.JournalStats(); rec != ops {
		t.Fatalf("journal records %d, want %d", rec, ops)
	}

	wantG, err := s.Snapshot().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, base, Config{JournalPath: path})
	if s2.Epoch() != ops {
		t.Fatalf("replayed epoch %d, want %d", s2.Epoch(), ops)
	}
	g2, err := s2.Snapshot().Graph()
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, wantG, g2)
}

// TestGroupCommitIntraBatchValidation pins the sequencing contract
// inside one batch: each op validates against the effects of the ops
// before it, so a duplicate add loses exactly as it would have on the
// serial path, and ops that depend on an earlier op of the batch (a
// re-weight of an edge added in it, a removal then a re-add) see it.
// Rejected ops take no epoch; the survivors share one commit.
func TestGroupCommitIntraBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	base := testGraph(rng, 20)
	if _, ok := base.EdgeWeight(2, 17); ok {
		t.Fatal("fixture already has edge (2,17)")
	}
	ms := []Mutation{
		{Op: OpAddEdge, U: 2, V: 17, W: 0.4},
		{Op: OpAddEdge, U: 17, V: 2, W: 0.9}, // duplicate of op 0
		{Op: OpUpdateEdge, U: 2, V: 17, W: 0.6},
		{Op: OpRemoveEdge, U: 2, V: 17},
		{Op: OpUpdateEdge, U: 2, V: 17, W: 0.7}, // edge gone again
		{Op: OpAddEdge, U: 2, V: 17, W: 0.3},
	}

	s := mustOpen(t, base, Config{})
	batch := prepared(ms...)
	s.commitBatch(batch)
	got := settle(t, batch)

	// The serial path: the same ops, one Apply (one commit) each.
	serial := mustOpen(t, base, Config{})
	for i, m := range ms {
		_, epoch, err := serial.Apply(m)
		if (err == nil) != (got[i].err == nil) || (err != nil && err.Error() != got[i].err.Error()) {
			t.Fatalf("op %d: batched error %v, serial error %v", i, got[i].err, err)
		}
		if err == nil && epoch != got[i].epoch {
			t.Fatalf("op %d: batched epoch %d, serial epoch %d", i, got[i].epoch, epoch)
		}
	}
	if !errors.Is(got[1].err, ErrDuplicateEdge) || !errors.Is(got[4].err, ErrUnknownEdge) {
		t.Fatalf("rejects: op 1 %v, op 4 %v", got[1].err, got[4].err)
	}
	if s.Epoch() != 4 || s.Commits() != 1 {
		t.Fatalf("epoch %d, commits %d, want 4 ops in 1 commit", s.Epoch(), s.Commits())
	}
	if w, ok := s.Snapshot().View().EdgeWeight(2, 17); !ok || w != 0.3 {
		t.Fatalf("edge after batch: %v %v, want 0.3", w, ok)
	}
	if !equalFP(viewFingerprint(s.Snapshot().View()), viewFingerprint(serial.Snapshot().View())) {
		t.Fatal("batched and serial stores disagree")
	}
}

// TestGroupCommitTornBatch simulates a crash that tears a group write
// mid-record: a batch of two appends where the second record is cut
// off without its newline. Replay must keep every complete record and
// drop the torn tail, exactly as with per-op appends, and the next
// write must start clean.
func TestGroupCommitTornBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	base := testGraph(rng, 20)
	path := filepath.Join(t.TempDir(), "wal.jsonl")

	s := mustOpen(t, base, Config{JournalPath: path})
	for i := 0; i < 3; i++ {
		if _, err := s.AddCollaboration(expertgraph.NodeID(i), expertgraph.NodeID(i+10), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-append what a torn two-record group write leaves behind: the
	// first record intact, the second cut mid-JSON.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"op\":\"add_edge\",\"u\":5,\"v\":15,\"w\":0.3}\n{\"op\":\"add_edge\",\"u\":6,\"v\":1"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, base, Config{JournalPath: path})
	if s2.Epoch() != 4 {
		t.Fatalf("epoch after torn-batch replay: %d, want 4 (3 ops + surviving batch head)", s2.Epoch())
	}
	gv := s2.Snapshot().View()
	if w, ok := gv.EdgeWeight(5, 15); !ok || w != 0.3 {
		t.Fatalf("complete record of the torn batch lost: %v %v", w, ok)
	}
	if _, ok := gv.EdgeWeight(6, 1); ok {
		t.Fatal("torn record of the batch was applied")
	}
	// The truncated tail must be gone so the next group write appends
	// cleanly and survives another replay.
	if _, err := s2.AddCollaboration(7, 12, 0.2); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, base, Config{JournalPath: path})
	if s3.Epoch() != 5 {
		t.Fatalf("epoch after truncate+append replay: %d, want 5", s3.Epoch())
	}
}
