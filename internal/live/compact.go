package live

import (
	"bufio"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"authteam/internal/expertgraph"
)

// Journal compaction: fold the write-ahead log into a persisted base
// graph so replay-on-boot stays O(churn since the last compaction)
// instead of O(lifetime mutations). The compacted base lives at
// <journal>.base — a gob file of {epoch, graph} — and the journal is
// rewritten to hold only the suffix past that epoch, anchored by a
// {"journal_start": E} header line.
//
// Crash safety hinges on ordering and on both files carrying their own
// epoch. The base is written to a temp file and renamed into place
// *before* the journal is rewritten; a crash between the two leaves a
// new base and an old journal, and Open resolves the overlap by
// skipping the journal records at or below the base's epoch — replay
// lands on the identical epoch either way. A crash before the base
// rename leaves everything untouched, and the journal rewrite itself
// is also temp-file + rename.

// ErrNoJournal is returned by Compact on a store opened without a
// journal (there is nothing to fold).
var ErrNoJournal = errors.New("live: compaction requires a journal")

// CompactStats reports what one compaction did.
type CompactStats struct {
	// Epoch is the epoch folded into the persisted base graph.
	Epoch uint64 `json:"epoch"`
	// Folded is the number of mutations this compaction folded into the
	// base: the records of epochs (pre-fold base epoch, Epoch]. After a
	// crash in a previous compaction's window it is smaller than
	// Removed — the overlap records were already represented by the
	// recovered base and are only being dropped from the journal.
	Folded uint64 `json:"folded"`
	// Removed is the number of records removed from the journal file
	// (everything at or below Epoch, including any crash-window overlap
	// a previously interrupted compaction had already folded).
	Removed uint64 `json:"removed"`
	// Remaining is the number of records left in the journal: the
	// mutations applied while the compaction ran.
	Remaining uint64 `json:"remaining"`
}

// basePath locates the compacted base graph next to a journal.
func basePath(journalPath string) string { return journalPath + ".base" }

// baseHeader precedes the graph in the compacted base file. Term is
// the fencing term of the lineage that folded the base (see
// promote.go); gob matches fields by name, so bases written before
// terms existed decode with Term 0 and newer bases stay readable by
// older code, keeping the format at version 1.
type baseHeader struct {
	Version int
	Epoch   uint64
	Term    uint64
}

const baseFormatVersion = 1

// Compact folds every mutation up to the current epoch into the
// persisted base graph, truncates the journal to the suffix applied
// while the fold ran, and re-bases the store in memory: the folded
// epoch's materialized graph becomes the new in-memory base and the
// resident log shrinks to the post-fold suffix. A long-running
// deployment under a background compactor therefore keeps resident state —
// journal file, mutation log, per-epoch overlay construction cost —
// O(churn since the last fold), never O(lifetime mutations).
//
// Readers are unaffected throughout: published snapshots carry their
// own base+log references and stay valid, and writers are only blocked
// for the final journal swap + re-base, not for the materialization.
//
// A fold is also an overlay-chain boundary: the snapshot published by
// the re-base has a different base graph than its predecessor, so it
// carries no view to extend — its view folds the new (short) log over
// the new base on first use, and later batches extend that root (see
// OverlayView). That fold is exactly the O(churn) bound above, so
// folding keeps the chain's reset cost small too.
//
// After the re-base, SnapshotAt refuses epochs below the fold (their
// graphs can no longer be reconstructed), while MutationsSince keeps
// answering across exactly one fold boundary (the folded generation's
// log is retained until the next fold) so incremental index repair
// survives a re-base.
func (s *Store) Compact() (CompactStats, error) {
	// One compaction at a time: two interleaved folds could overwrite
	// each other's temp files and leave the base epoch behind the
	// rewritten journal's start — a pairing Open refuses to load. The
	// dedicated lock keeps mutators running during the fold (they only
	// contend on s.mu for the final journal swap).
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.foldHist != nil {
		start := time.Now()
		defer func() { s.foldHist.Observe(time.Since(start).Seconds()) }()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CompactStats{}, ErrClosed
	}
	if s.journal == nil || s.journal.closed {
		s.mu.Unlock()
		return CompactStats{}, ErrNoJournal
	}
	s.mu.Unlock()

	snap := s.Snapshot()
	// Materializing the fold epoch is the one legitimate
	// materialization besides index rebuilds; the same graph then
	// becomes the new in-memory base.
	g, err := snap.Graph()
	if err != nil {
		return CompactStats{}, fmt.Errorf("live: compact: %w", err)
	}
	ts := termState{term: s.term.Load(), termStart: s.termStart.Load(), fenced: s.fenced.Load()}
	if err := writeBaseFile(basePath(s.journalPath), g, snap.Epoch(), ts.term); err != nil {
		return CompactStats{}, err
	}

	// Stage the journal rewrite outside the writer lock: the bulk of
	// the post-fold tail — everything applied up to this instant — is
	// written and fsynced to a temp file while mutators keep running.
	// The final swap under mu then only appends the handful of records
	// that raced in meanwhile and renames the file, so the writer stall
	// is O(in-flight records), not O(journal tail). The captured tail
	// slice is safe to read without the lock: the log's backing array
	// is append-only and every captured index is already published.
	s.mu.Lock()
	if s.journal == nil || s.journal.closed {
		s.mu.Unlock()
		return CompactStats{}, ErrNoJournal
	}
	foldIdx := int(snap.Epoch() - s.baseEpoch)
	tail := s.log[foldIdx:len(s.log):len(s.log)]
	sync := s.journal.sync
	s.mu.Unlock()

	staged, err := stageJournal(s.journalPath, snap.Epoch(), tail, sync, ts)
	if err != nil {
		return CompactStats{}, err
	}
	return s.swapAndRebase(snap, g, staged, foldIdx, len(tail))
}

// WriteBaseStream encodes a base graph, its epoch and the writing
// lineage's term in the compacted base file format (gob header +
// expertgraph encoding). It is the single codec behind the on-disk
// <journal>.base file and the replication base transfer, so a follower
// can adopt a streamed base byte-for-byte compatible with what a local
// fold would have written.
func WriteBaseStream(w io.Writer, g *expertgraph.Graph, epoch, term uint64) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(&baseHeader{Version: baseFormatVersion, Epoch: epoch, Term: term}); err != nil {
		return fmt.Errorf("live: base encode: %w", err)
	}
	if err := expertgraph.Write(bw, g); err != nil {
		return fmt.Errorf("live: base encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("live: base encode: %w", err)
	}
	return nil
}

// ReadBaseStream decodes a graph, its epoch and its term written by
// WriteBaseStream (term 0 for bases from before fencing existed).
func ReadBaseStream(r io.Reader) (*expertgraph.Graph, uint64, uint64, error) {
	br := bufio.NewReader(r)
	var hdr baseHeader
	if err := gob.NewDecoder(br).Decode(&hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("live: base decode: %w", err)
	}
	if hdr.Version != baseFormatVersion {
		return nil, 0, 0, fmt.Errorf("live: base: unsupported version %d", hdr.Version)
	}
	g, err := expertgraph.Read(br)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("live: base decode: %w", err)
	}
	return g, hdr.Epoch, hdr.Term, nil
}

// writeBaseFile persists the materialized fold-epoch graph atomically
// (temp file + fsync + rename). It is the first half of Compact — and
// of AdoptBase; a crash after it leaves a recoverable base/journal
// pairing, never a hole.
func writeBaseFile(path string, g *expertgraph.Graph, epoch, term uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("live: compact: %w", err)
	}
	if err := WriteBaseStream(f, g, epoch, term); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("live: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("live: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("live: compact: %w", err)
	}
	return nil
}

// swapAndRebase appends the records that raced in while the journal
// rewrite was being staged, atomically installs the staged file, and
// re-bases the in-memory store onto g (the materialized fold-epoch
// graph). Final phase of Compact; runs under the writer lock so
// mutators never observe a half-swapped store — but the lock is held
// only for the straggler append + rename + in-memory swap, not for the
// tail rewrite itself.
func (s *Store) swapAndRebase(snap *Snapshot, g *expertgraph.Graph, staged *stagedJournal, foldIdx, stagedLen int) (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil || s.journal.closed {
		staged.abort()
		return CompactStats{}, ErrNoJournal
	}
	tail := s.log[foldIdx:]
	nj, err := staged.install(s.journalPath, tail[stagedLen:])
	if err != nil {
		return CompactStats{}, err
	}
	old := s.journal
	s.journal = nj
	old.Close()

	// In-memory re-base: the fold-epoch graph becomes the base, the log
	// shrinks to the in-flight suffix (copied into a fresh backing
	// array so the old one is released once published snapshots die).
	// The folded generation's log is retained as prevLog so
	// MutationsSince bridges this one boundary; the generation before
	// it is dropped. The writer state (edge set, degrees, node/edge
	// counters) describes the current epoch, which the re-base does not
	// change, so it stays as it is.
	newLog := append(make([]Mutation, 0, len(tail)), tail...)
	if foldIdx > 0 {
		// A zero-record fold (crash recovery, back-to-back Compact)
		// keeps the currently retained generation instead of replacing
		// it with an empty window.
		s.prevBaseEpoch, s.prevLog = s.baseEpoch, s.log[:foldIdx]
	}
	s.base = g
	s.baseEpoch = snap.Epoch()
	s.log = newLog
	s.snap.Store(s.buildSnapshotLocked())

	s.compactions.Add(1)
	return CompactStats{
		Epoch:     snap.Epoch(),
		Folded:    uint64(foldIdx),
		Removed:   snap.Epoch() - old.startEpoch,
		Remaining: uint64(len(tail)),
	}, nil
}

// stagedJournal is a fully written (and fsynced) replacement journal
// that has not been renamed into place yet: the expensive half of the
// rewrite, done without the writer lock.
type stagedJournal struct {
	f          *os.File
	tmp        string
	sync       bool
	startEpoch uint64
	records    uint64
	bytes      int64
}

// stageJournal writes a fresh journal (header + tail records) to a
// temp file and fsyncs it, leaving installation — straggler append +
// rename — to the short critical section. ts is the term state the
// header persists alongside the start epoch.
func stageJournal(path string, startEpoch uint64, tail []Mutation, sync bool, ts termState) (*stagedJournal, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("live: compact journal: %w", err)
	}
	st := &stagedJournal{f: f, tmp: tmp, sync: sync, startEpoch: startEpoch}
	bw := bufio.NewWriter(f)
	hdr, err := json.Marshal(journalHeader{
		JournalStart: &startEpoch,
		Term:         ts.term,
		TermStart:    ts.termStart,
		Fenced:       ts.fenced,
	})
	if err != nil {
		st.abort()
		return nil, fmt.Errorf("live: compact journal: %w", err)
	}
	hdr = append(hdr, '\n')
	if _, err := bw.Write(hdr); err != nil {
		st.abort()
		return nil, fmt.Errorf("live: compact journal: %w", err)
	}
	st.bytes += int64(len(hdr))
	if err := st.writeRecords(bw, tail); err != nil {
		st.abort()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		st.abort()
		return nil, fmt.Errorf("live: compact journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		st.abort()
		return nil, fmt.Errorf("live: compact journal: %w", err)
	}
	return st, nil
}

func (st *stagedJournal) writeRecords(w io.Writer, muts []Mutation) error {
	for _, m := range muts {
		buf, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("live: compact journal: %w", err)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("live: compact journal: %w", err)
		}
		st.bytes += int64(len(buf))
		st.records++
	}
	return nil
}

// install appends the records applied while the stage was being
// written, fsyncs the (small) addition and renames the file over path,
// returning the open append handle. Called under the store's writer
// lock; the work here is O(stragglers), not O(tail).
func (st *stagedJournal) install(path string, stragglers []Mutation) (*journal, error) {
	if len(stragglers) > 0 {
		if err := st.writeRecords(st.f, stragglers); err != nil {
			st.abort()
			return nil, err
		}
		if err := st.f.Sync(); err != nil {
			st.abort()
			return nil, fmt.Errorf("live: compact journal: %w", err)
		}
	}
	if err := os.Rename(st.tmp, path); err != nil {
		st.abort()
		return nil, fmt.Errorf("live: compact journal: %w", err)
	}
	// The handle follows the rename (it is bound to the inode), and its
	// offset already sits at end-of-file for appends.
	return &journal{f: st.f, sync: st.sync, startEpoch: st.startEpoch, records: st.records, bytes: st.bytes}, nil
}

// abort discards a staged journal that will not be installed.
func (st *stagedJournal) abort() {
	st.f.Close()
	os.Remove(st.tmp)
}

// loadBaseFile reads a compacted base graph, its epoch and its term.
// A missing file returns (nil, 0, 0, nil) — the store then starts from
// the caller's graph at epoch 0.
func loadBaseFile(path string) (*expertgraph.Graph, uint64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("live: base graph: %w", err)
	}
	defer f.Close()
	g, epoch, term, err := ReadBaseStream(f)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("live: base graph %s: %w", path, err)
	}
	return g, epoch, term, nil
}
