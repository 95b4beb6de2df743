package live

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"authteam/internal/expertgraph"
)

// viewFingerprint summarizes a graph view for cross-restart equality
// checks: counts, every node's record, and its adjacency in canonical
// (sorted-by-neighbor) order — Neighbors visit order is
// implementation-defined and must not leak into the comparison.
func viewFingerprint(g expertgraph.GraphView) []float64 {
	fp := []float64{float64(g.NumNodes()), float64(g.NumEdges()), float64(g.NumSkills())}
	for u := expertgraph.NodeID(0); int(u) < g.NumNodes(); u++ {
		fp = append(fp, g.Authority(u), float64(g.Degree(u)), float64(len(g.Skills(u))))
		type half struct {
			to expertgraph.NodeID
			w  float64
		}
		var adj []half
		g.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			adj = append(adj, half{v, w})
			return true
		})
		sort.Slice(adj, func(i, j int) bool { return adj[i].to < adj[j].to })
		for _, e := range adj {
			fp = append(fp, float64(e.to), e.w)
		}
	}
	return fp
}

func equalFP(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomBase(t, rng, 25)
	journal := filepath.Join(t.TempDir(), "graph.wal")

	st, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, st, rng, 40)
	preEpoch := st.Epoch()

	stats, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != preEpoch || stats.Remaining != 0 || stats.Folded != preEpoch || stats.Removed != preEpoch {
		t.Fatalf("compact stats %+v, want epoch=%d folded=removed=%d remaining=0", stats, preEpoch, preEpoch)
	}
	// In-memory re-base: the fold swapped the resident base graph and
	// reset the log without a restart.
	if st.BaseEpoch() != preEpoch || st.LogLen() != 0 {
		t.Fatalf("after compact: base epoch %d log len %d, want %d/0", st.BaseEpoch(), st.LogLen(), preEpoch)
	}
	if records, _ := st.JournalStats(); records != 0 {
		t.Fatalf("journal holds %d records after compaction, want 0", records)
	}
	if _, err := os.Stat(basePath(journal)); err != nil {
		t.Fatalf("compacted base missing: %v", err)
	}

	// Mutations keep flowing into the truncated journal.
	mutateRandomly(t, st, rng, 15)
	finalEpoch := st.Epoch()
	suffix := finalEpoch - preEpoch
	want := viewFingerprint(st.Snapshot().View())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay must be bounded by the post-compaction suffix and
	// land on the identical epoch and graph.
	st2, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Epoch() != finalEpoch {
		t.Fatalf("restart epoch %d, want %d", st2.Epoch(), finalEpoch)
	}
	if st2.BaseEpoch() != preEpoch {
		t.Fatalf("restart base epoch %d, want %d", st2.BaseEpoch(), preEpoch)
	}
	if got := st2.Epoch() - st2.BaseEpoch(); got != suffix {
		t.Fatalf("replayed %d records, want the %d-record suffix", got, suffix)
	}
	if !equalFP(viewFingerprint(st2.Snapshot().View()), want) {
		t.Fatal("graph after restart differs from pre-restart state")
	}
	// History below the compacted base is gone.
	if _, ok := st2.SnapshotAt(preEpoch - 1); ok {
		t.Fatal("SnapshotAt resolved an epoch folded into the base")
	}
	if _, ok := st2.SnapshotAt(preEpoch); !ok {
		t.Fatal("SnapshotAt refused the base epoch itself")
	}
}

// TestCompactCrashBetweenBaseAndTruncate simulates a kill in Compact's
// crash window: the base was rewritten (renamed into place) but the
// journal was never truncated. Reopening must skip the journal prefix
// already folded into the base and land on the identical epoch.
func TestCompactCrashBetweenBaseAndTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := randomBase(t, rng, 25)
	journal := filepath.Join(t.TempDir(), "graph.wal")

	st, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, st, rng, 30)
	snap := st.Snapshot()
	epoch := snap.Epoch()
	// First half of Compact only: base rename happens, journal
	// truncation (and the in-memory re-base) does not — the crash
	// window.
	g, err := snap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBaseFile(basePath(journal), g, snap.Epoch(), 0); err != nil {
		t.Fatal(err)
	}
	want := viewFingerprint(snap.View())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != epoch {
		t.Fatalf("epoch after crash-recovery %d, want %d", st2.Epoch(), epoch)
	}
	if st2.BaseEpoch() != epoch {
		t.Fatalf("base epoch %d, want %d (nothing replayed: every record is folded)", st2.BaseEpoch(), epoch)
	}
	if !equalFP(viewFingerprint(st2.Snapshot().View()), want) {
		t.Fatal("graph after crash-recovery differs")
	}
	// A finished compaction on the recovered store truncates the
	// overlapping journal and keeps the epoch stable. Every journal
	// record sits in the crash-window overlap the interrupted
	// compaction already folded into the recovered base, so this
	// compaction folds nothing itself — Folded must say 0, not
	// double-count the overlap it merely removes from the journal.
	stats, err := st2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != epoch || stats.Remaining != 0 || stats.Folded != 0 || stats.Removed != epoch {
		t.Fatalf("recovery compact stats %+v, want epoch=%d folded=0 removed=%d remaining=0", stats, epoch, epoch)
	}
	mutateRandomly(t, st2, rng, 10)
	final := st2.Epoch()
	st2.Close()

	st3, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Epoch() != final {
		t.Fatalf("final epoch %d, want %d", st3.Epoch(), final)
	}
}

func TestCompactThresholdAtOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := randomBase(t, rng, 20)
	journal := filepath.Join(t.TempDir(), "graph.wal")

	st, err := Open(base, Config{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, st, rng, 20)
	epoch := st.Epoch()
	st.Close()

	// Below threshold: replay leaves the journal alone.
	st2, err := Open(base, Config{JournalPath: journal, CompactThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Compactions() != 0 {
		t.Fatal("compacted below threshold")
	}
	st2.Close()

	// At/above threshold: boot folds the journal.
	st3, err := Open(base, Config{JournalPath: journal, CompactThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Compactions() != 1 {
		t.Fatalf("compactions = %d, want 1", st3.Compactions())
	}
	if records, _ := st3.JournalStats(); records != 0 {
		t.Fatalf("journal holds %d records after boot compaction", records)
	}
	if st3.Epoch() != epoch {
		t.Fatalf("epoch %d after boot compaction, want %d", st3.Epoch(), epoch)
	}
	st3.Close()

	// And the next boot replays nothing at all.
	st4, err := Open(base, Config{JournalPath: journal, CompactThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st4.Close()
	if st4.Epoch() != epoch || st4.BaseEpoch() != epoch || st4.Compactions() != 0 {
		t.Fatalf("post-compaction boot: epoch %d base %d compactions %d, want %d/%d/0",
			st4.Epoch(), st4.BaseEpoch(), st4.Compactions(), epoch, epoch)
	}
}

func TestCompactWithoutJournal(t *testing.T) {
	base := randomBase(t, rand.New(rand.NewSource(9)), 10)
	st, err := Open(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != ErrNoJournal {
		t.Fatalf("Compact without journal: %v, want ErrNoJournal", err)
	}
}

// FuzzReadBaseStream decodes arbitrary bytes as a replication base,
// the body a follower fetches from GET /v1/journal/base. A malformed
// body must be an error, never a panic: the follower's base fetch has
// no recover, so one bad response would crash every following process.
// A body that decodes must survive a re-encode with its epoch, term
// and shape intact.
func FuzzReadBaseStream(f *testing.F) {
	b := expertgraph.NewBuilder(5, 4)
	ana := b.AddNode("ana", 10, "databases")
	bo := b.AddNode("bo", 4, "networks", "ml")
	cy := b.AddNode("cy", 7, "ml")
	b.AddNode("gone", 3, "databases")
	dee := b.AddNode("dee", 12)
	b.AddEdge(ana, dee, 0.3)
	b.AddEdge(dee, bo, 0.4)
	b.AddEdge(dee, cy, 0.5)
	b.RemoveNode(3)
	g, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteBaseStream(&seed, g, 7, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, epoch, term, err := ReadBaseStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBaseStream(&out, g, epoch, term); err != nil {
			t.Fatalf("re-encode a decoded base: %v", err)
		}
		g2, epoch2, term2, err := ReadBaseStream(&out)
		if err != nil {
			t.Fatalf("decode a re-encoded base: %v", err)
		}
		if epoch2 != epoch || term2 != term || g2.NumNodes() != g.NumNodes() ||
			g2.NumEdges() != g.NumEdges() || g2.NumSkills() != g.NumSkills() || g2.NumRemoved() != g.NumRemoved() {
			t.Fatalf("round trip changed the base: epoch %d→%d term %d→%d nodes %d→%d edges %d→%d",
				epoch, epoch2, term, term2, g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
		}
	})
}
