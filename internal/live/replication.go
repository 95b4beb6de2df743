package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
)

// The journal doubles as a replication log: every mutation is already
// a self-contained journal record applied in a total epoch order, so a
// follower that replays the same records through the same apply path
// reconstructs the identical store — snapshot by snapshot, epoch by
// epoch. This file is the store-side half of that contract:
//
//   - TailSince serves the record stream (long-polling on the epoch
//     watch channel instead of holding the writer lock),
//   - WriteBaseTo streams the current fold snapshot (the in-memory
//     base graph, which is immutable) for followers behind the
//     retained window,
//   - AdoptBase installs a fetched base wholesale, the follower-side
//     mirror of Compact's re-base,
//   - Follower drives a ReplicationSource — any transport — through
//     catch-up, steady tailing, and fold-boundary recovery.
//
// Group commit on the leader is invisible at this layer: a batch is
// journaled as N ordinary records carrying consecutive per-op epochs,
// byte-identical to what N serial appends would have written, so the
// tail stream and the base snapshot need no notion of batch
// boundaries. The follower batches on its own side: it applies each
// tail response as one ApplyGroup run, so a backlog of N records costs
// a few group commits instead of N.

// Replication errors.
var (
	// ErrCompactedEpoch is returned by TailSince when the requested
	// epoch predates the retained history window (two or more folds
	// ago): the records are gone, the caller must fetch the base
	// snapshot and resume from its epoch.
	ErrCompactedEpoch = errors.New("live: epoch predates the retained journal window")
	// ErrFutureEpoch is returned by TailSince when the requested epoch
	// is ahead of the store — the tailer and the store disagree about
	// history, which a correct follower never does.
	ErrFutureEpoch = errors.New("live: epoch is ahead of the store")
)

// TailSince returns the mutations of epochs from+1 .. from+max (max ≤
// 0 means unbounded) together with the store's current epoch. When the
// store is exactly at `from`, the call long-polls: it blocks on the
// epoch watch until a new epoch is published or ctx is done, and a
// timeout returns an empty batch with a nil error (the idle long-poll
// round-trip). ErrCompactedEpoch and ErrFutureEpoch report a `from`
// outside the retained window.
func (s *Store) TailSince(ctx context.Context, from uint64, max int) ([]Mutation, uint64, error) {
	for {
		if s.fenced.Load() {
			// A demoted store's suffix past TermStart may diverge from
			// the surviving lineage; serving it would replicate the
			// split-brain fencing just prevented.
			return nil, s.Epoch(), &FencedError{Term: s.term.Load()}
		}
		sn := s.Snapshot()
		if from > sn.epoch {
			return nil, sn.epoch, fmt.Errorf("%w: tail from %d, store at %d", ErrFutureEpoch, from, sn.epoch)
		}
		muts, ok := sn.MutationsSince(from)
		if !ok {
			return nil, sn.epoch, fmt.Errorf("%w: tail from %d, window starts after %d", ErrCompactedEpoch, from, sn.prevBaseEpoch)
		}
		if len(muts) > 0 {
			if max > 0 && len(muts) > max {
				muts = muts[:max:max]
			}
			return muts, sn.epoch, nil
		}
		if !s.WaitEpoch(ctx, from+1) {
			return nil, s.Epoch(), nil
		}
	}
}

// WriteBaseTo streams the store's current base graph and its epoch in
// the compacted-base format (WriteBaseStream), returning the epoch
// written. The base graph is immutable and read from one snapshot, so
// the stream is consistent without any locking and costs no
// materialization — it is exactly the graph a local fold last wrote
// (or the graph the store was opened over, at epoch 0). The stream
// carries the store's *current* term: an adopter is joining the
// current lineage at a prefix of it, whatever term that prefix was
// originally written under.
func (s *Store) WriteBaseTo(w io.Writer) (uint64, error) {
	if s.fenced.Load() {
		// A demoted store's base may already contain folded records of
		// the superseded suffix; an adopter would take them for the
		// winning lineage (AdoptBase clears its fence) and re-introduce
		// exactly the split-brain splice the fence prevented.
		return 0, &FencedError{Term: s.term.Load()}
	}
	sn := s.Snapshot()
	if err := WriteBaseStream(w, sn.base, sn.baseEpoch, s.term.Load()); err != nil {
		return 0, err
	}
	return sn.baseEpoch, nil
}

// AdoptBase replaces the store's state wholesale with g at the given
// epoch — the follower-side mirror of Compact's re-base, used when the
// leader's retained window has moved past this store's epoch and
// incremental replay is impossible. The epoch must not be behind the
// store. With a journal, the new base is persisted first and the
// journal then reset to an empty file anchored at the epoch (the same
// crash window as Compact: a crash between the two leaves the base
// ahead of the journal, which Open recovers by resetting the journal).
//
// term is the fencing term the base was served under: a newer term is
// adopted (the store joins that lineage at the adopted epoch), and
// adopting a term at least the store's own clears a demotion fence —
// the divergent state the fence guarded is exactly what the adoption
// just discarded. term 0 (an in-process source predating fencing)
// leaves the term state alone.
//
// The adopted epoch must not be behind the store — with one exception:
// a *fenced* store adopting the surviving lineage (term at least its
// own) may rewind, because its suffix past the fence is divergent
// history whose wholesale discard is the entire point of the resync.
//
// History does not bridge an adoption: prevLog is dropped, so
// MutationsSince refuses epochs below the adopted one, and snapshots
// published after the adoption carry a new lineage that MaintainIndex
// will not repair across — even when an anchor's epoch is at or above
// the adopted one (a bootstrap adopting epoch 0 over the empty graph,
// or a fenced store that rewound and rolled forward past its old
// head). Resident 2-hop covers anchored before the adoption are
// rebuilt, not silently repaired across a gap whose mutations this
// store never saw.
func (s *Store) AdoptBase(g *expertgraph.Graph, epoch, term uint64) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	ts := termState{term: s.term.Load(), termStart: s.termStart.Load(), fenced: s.fenced.Load()}
	// Demote and Promote hold compactMu too, so the fence decision is
	// stable for the rest of the call.
	rewind := ts.fenced && term >= ts.term
	if cur := s.snap.Load().epoch; epoch < cur && !rewind {
		s.mu.Unlock()
		return fmt.Errorf("live: adopt base at epoch %d behind store epoch %d", epoch, cur)
	}
	if term > ts.term {
		ts.term, ts.termStart = term, epoch
	}
	if term >= ts.term {
		ts.fenced = false
	}
	journaled := s.journal != nil && !s.journal.closed
	var sync bool
	if journaled {
		sync = s.journal.sync
	}
	s.mu.Unlock()

	// File work outside the writer lock, ordered base-first (see the
	// crash-window note above).
	var staged *stagedJournal
	if journaled {
		if err := writeBaseFile(basePath(s.journalPath), g, epoch, ts.term); err != nil {
			return err
		}
		var err error
		if staged, err = stageJournal(s.journalPath, epoch, nil, sync, ts); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if staged != nil {
			staged.abort()
		}
		return ErrClosed
	}
	if cur := s.snap.Load().epoch; epoch < cur && !rewind {
		if staged != nil {
			staged.abort()
		}
		return fmt.Errorf("live: adopt base at epoch %d behind store epoch %d", epoch, cur)
	}
	if staged != nil {
		nj, err := staged.install(s.journalPath, nil)
		if err != nil {
			return err
		}
		old := s.journal
		s.journal = nj
		old.Close()
	}
	s.base, s.baseEpoch = g, epoch
	s.log = nil
	s.prevBaseEpoch, s.prevLog = epoch, nil
	s.term.Store(ts.term)
	s.termStart.Store(ts.termStart)
	s.fenced.Store(ts.fenced)
	s.resetWriterState()
	// Count the adoption first: the published snapshot carries the new
	// lineage's adoption count.
	s.baseAdoptions.Add(1)
	s.snap.Store(s.buildSnapshotLocked())
	s.bumpWatch()
	return nil
}

// BaseAdoptions reports how many times the store adopted a base
// snapshot wholesale (a follower recovering across a leader fold).
func (s *Store) BaseAdoptions() uint64 { return s.baseAdoptions.Load() }

// ReplicationSource is the transport-agnostic record stream a Follower
// replays: tail journal records from an epoch, and fetch the current
// fold snapshot when the tail has moved past the follower. *Store
// itself is a source (SourceFromStore) for in-process replication and
// tests; internal/repl wraps the leader's HTTP endpoints in the same
// interface.
type ReplicationSource interface {
	// Tail returns the mutations of epochs from+1 onward (at most max
	// when max > 0) and the source's current epoch. It blocks —
	// bounded by ctx — while the source has nothing past `from`; an
	// empty batch with a nil error is an idle poll. ErrCompactedEpoch
	// reports that `from` predates the source's retained window (fetch
	// Base); ErrFutureEpoch that the caller is ahead of the source;
	// ErrFenced that the caller's lineage diverged from the source's
	// (the caller must demote itself — resuming would split-brain).
	Tail(ctx context.Context, from uint64, max int) ([]Mutation, uint64, error)
	// Base returns the source's current base snapshot, its epoch, and
	// the term it is served under (0 from sources predating fencing).
	Base(ctx context.Context) (*expertgraph.Graph, uint64, uint64, error)
}

// GroupedSource is a ReplicationSource that can also return a tail as
// apply-together groups. Nothing in this module consumes it (the
// Follower applies each Tail response as one group); it exists because
// the serving benchmark module (servebench) asserts it on its traced
// source.
type GroupedSource interface {
	ReplicationSource
	// TailGroups is Tail with the flat record stream split into
	// apply-together groups; concatenated in order, the groups are
	// exactly what Tail would have returned.
	TailGroups(ctx context.Context, from uint64, max int) ([][]Mutation, uint64, error)
}

// storeSource adapts a *Store into a ReplicationSource.
type storeSource struct{ s *Store }

// SourceFromStore exposes a store as a ReplicationSource, replicating
// store-to-store inside one process (tests, embedded read replicas).
func SourceFromStore(s *Store) ReplicationSource { return storeSource{s} }

func (ss storeSource) Tail(ctx context.Context, from uint64, max int) ([]Mutation, uint64, error) {
	return ss.s.TailSince(ctx, from, max)
}

func (ss storeSource) Base(context.Context) (*expertgraph.Graph, uint64, uint64, error) {
	if ss.s.fenced.Load() {
		// Same rule as WriteBaseTo: a fenced store must not seed
		// adopters with its superseded lineage.
		return nil, 0, 0, &FencedError{Term: ss.s.term.Load()}
	}
	sn := ss.s.Snapshot()
	return sn.base, sn.baseEpoch, ss.s.term.Load(), nil
}

// FollowerConfig parameterizes StartFollower.
type FollowerConfig struct {
	// PollTimeout bounds each tail long-poll (default 25s).
	PollTimeout time.Duration
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.PollTimeout <= 0 {
		c.PollTimeout = 25 * time.Second
	}
	return c
}

// followerBackoff is the follower's initial retry delay after a source
// error; it doubles per consecutive failure up to 32×.
const followerBackoff = 500 * time.Millisecond

// followerTailBatch caps the records a follower requests per tail call.
const followerTailBatch = 4096

// FollowerStats is the replication section a follower reports.
type FollowerStats struct {
	// Running is false once the loop stopped — by Stop, or by a fatal
	// divergence recorded in LastError.
	Running bool `json:"running"`
	// Applied counts records replayed onto the local store.
	Applied uint64 `json:"records_applied"`
	// BaseFetches counts full base adoptions (fold-boundary catch-ups).
	BaseFetches uint64 `json:"base_fetches"`
	// Polls counts tail round-trips, including idle long-polls.
	Polls uint64 `json:"polls"`
	// Errors counts transient source failures (the loop retried).
	Errors uint64 `json:"errors"`
	// LeaderEpoch is the source's epoch as of the last tail response;
	// Lag is LeaderEpoch minus the local epoch at the time of the
	// stats call (0 when caught up).
	LeaderEpoch uint64 `json:"leader_epoch"`
	Lag         uint64 `json:"lag"`
	// LagSeconds is how long ago the follower last confirmed it was
	// caught up with the source (a successful poll with local epoch ≥
	// leader epoch): 0 while caught up, and growing from the moment the
	// follower fell — or lost contact — behind. Unlike Lag it keeps
	// rising while the leader is unreachable, so a readiness probe can
	// shed a stale replica even when no epoch delta is observable.
	LagSeconds float64 `json:"lag_seconds"`
	// LastError is the most recent source or apply error ("" when the
	// last poll succeeded).
	LastError string `json:"last_error,omitempty"`
}

// Follower replays a ReplicationSource onto a local store: steady
// tailing from the store's epoch, each tail response applied as one
// ApplyGroup run (a few group commits, not one per record), automatic
// base adoption when the source's retained window has moved past it,
// exponential backoff on transport errors. The local store must not be
// mutated by anyone else — the follower checks epoch continuity per
// batch and stops with a sticky error on divergence rather than
// guessing (epochs are monotonic; silently resyncing backwards would
// break every epoch-keyed cache above the store).
type Follower struct {
	store *Store
	src   ReplicationSource
	cfg   FollowerConfig

	cancel   context.CancelFunc
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	applied     atomic.Uint64
	baseFetches atomic.Uint64
	polls       atomic.Uint64
	errs        atomic.Uint64
	leaderEpoch atomic.Uint64
	lastErr     atomic.Pointer[string]
	// caughtUp is true while the last successful poll confirmed local
	// epoch ≥ leader epoch; caughtUpNS is when that was last true
	// (start time until first confirmation), feeding LagSeconds.
	caughtUp   atomic.Bool
	caughtUpNS atomic.Int64
}

// StartFollower begins replaying src onto store in a background
// goroutine. Stop ends it.
func StartFollower(store *Store, src ReplicationSource, cfg FollowerConfig) *Follower {
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		store:  store,
		src:    src,
		cfg:    cfg.withDefaults(),
		cancel: cancel,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	f.caughtUpNS.Store(time.Now().UnixNano())
	go f.loop(ctx)
	return f
}

// Stop halts the follower and waits for its loop to exit. The local
// store is left at whatever epoch replication reached; a new follower
// can resume from it later.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.cancel()
	})
	<-f.done
}

// Stats reports the follower's replication counters.
func (f *Follower) Stats() FollowerStats {
	st := FollowerStats{
		Applied:     f.applied.Load(),
		BaseFetches: f.baseFetches.Load(),
		Polls:       f.polls.Load(),
		Errors:      f.errs.Load(),
		LeaderEpoch: f.leaderEpoch.Load(),
	}
	if e := f.lastErr.Load(); e != nil {
		st.LastError = *e
	}
	if local := f.store.Epoch(); st.LeaderEpoch > local {
		st.Lag = st.LeaderEpoch - local
	}
	if !f.caughtUp.Load() {
		if ts := f.caughtUpNS.Load(); ts > 0 {
			st.LagSeconds = time.Since(time.Unix(0, ts)).Seconds()
		}
	}
	select {
	case <-f.done:
	default:
		st.Running = true
	}
	return st
}

func (f *Follower) setErr(err error) {
	if err == nil {
		f.lastErr.Store(nil)
		return
	}
	msg := err.Error()
	f.lastErr.Store(&msg)
}

// sleep waits d or until Stop.
func (f *Follower) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stop:
	case <-t.C:
	}
}

func (f *Follower) loop(ctx context.Context) {
	defer close(f.done)
	backoff := followerBackoff
	// Bootstrap: a fresh store (epoch 0, no nodes) first adopts the
	// source's base wholesale. Tailing from epoch 0 would replay records
	// that apply on top of the source's base graph — which an empty
	// local store does not have. An already-seeded store (journal
	// replayed, or opened over the leader's graph file) skips this and
	// resumes from its own epoch. A *fenced* store — demoted out of its
	// old lineage, restarted against the surviving one (client failover)
	// — must also resync wholesale: its suffix diverged, and AdoptBase
	// of the new lineage's base is what discards it and clears the
	// fence; incremental tailing would be refused (and wrong) anyway.
	if f.store.Fenced() || (f.store.Epoch() == 0 && f.store.Snapshot().NumNodes() == 0) {
		for {
			select {
			case <-f.stop:
				return
			default:
			}
			if err := f.adoptBase(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				f.errs.Add(1)
				f.setErr(err)
				f.sleep(backoff)
				backoff = min(2*backoff, 32*followerBackoff)
				continue
			}
			f.setErr(nil)
			backoff = followerBackoff
			break
		}
	}
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		from := f.store.Epoch()
		pollCtx, cancel := context.WithTimeout(ctx, f.cfg.PollTimeout)
		muts, leaderEpoch, err := f.src.Tail(pollCtx, from, followerTailBatch)
		cancel()
		f.polls.Add(1)
		if leaderEpoch > 0 {
			f.leaderEpoch.Store(leaderEpoch)
		}

		// Apply whatever arrived as one group — a batch cut short by a
		// torn stream is still a clean prefix; the next poll resumes
		// exactly past the last applied epoch.
		fatal := false
		if len(muts) > 0 {
			if local := f.store.Epoch(); local != from {
				err = fmt.Errorf("live: follower: local store at epoch %d, expected %d (mutated outside replication)", local, from)
				fatal = true
			} else {
				last, n, aerr := f.store.ApplyGroup(muts)
				f.applied.Add(uint64(n))
				switch {
				case aerr != nil:
					err = fmt.Errorf("live: follower: apply epoch %d..%d: %w", from+1, from+uint64(len(muts)), aerr)
					fatal = true
				case n != len(muts) || last != from+uint64(n):
					err = fmt.Errorf("live: follower: group of %d applied as %d records ending at epoch %d, expected %d (mutated outside replication)",
						len(muts), n, last, from+uint64(len(muts)))
					fatal = true
				}
			}
		}

		switch {
		case errors.Is(err, ErrFenced):
			// The source — or the local store — fenced this lineage:
			// our suffix diverged from the surviving one. Demote the
			// local store (persisting the fence and the deposing term)
			// and stop; only a wholesale resync can rejoin the cluster.
			var fe *FencedError
			var term uint64
			if errors.As(err, &fe) {
				term = fe.Term
			}
			if derr := f.store.Demote(term); derr != nil {
				err = fmt.Errorf("%w (demote: %v)", err, derr)
			}
			f.setErr(err)
			return
		case fatal || errors.Is(err, ErrClosed) || errors.Is(err, ErrFutureEpoch):
			// Divergence between the two stores (or a closed local
			// store): stop with a sticky error instead of guessing.
			f.setErr(err)
			return
		case errors.Is(err, ErrCompactedEpoch):
			// The source folded past us while we were away: adopt its
			// base snapshot and resume tailing from the fold epoch.
			if aerr := f.adoptBase(ctx); aerr != nil {
				if ctx.Err() != nil {
					return
				}
				f.errs.Add(1)
				f.setErr(aerr)
				f.sleep(backoff)
				backoff = min(2*backoff, 32*followerBackoff)
				continue
			}
			f.setErr(nil)
			backoff = followerBackoff
		case err != nil && ctx.Err() == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			f.errs.Add(1)
			f.setErr(err)
			// Contact lost: we can no longer vouch for freshness, so
			// LagSeconds starts (or keeps) growing from the last
			// confirmed catch-up.
			f.caughtUp.Store(false)
			f.sleep(backoff)
			backoff = min(2*backoff, 32*followerBackoff)
		case err == nil:
			f.setErr(nil)
			backoff = followerBackoff
			if f.store.Epoch() >= leaderEpoch {
				f.caughtUpNS.Store(time.Now().UnixNano())
				f.caughtUp.Store(true)
			} else {
				f.caughtUp.Store(false)
			}
		}
	}
}

// adoptBase fetches the source's base snapshot and installs it. The
// fetch moves a whole graph, so it gets a generous multiple of the
// poll budget.
func (f *Follower) adoptBase(ctx context.Context) error {
	fetchCtx, cancel := context.WithTimeout(ctx, 10*f.cfg.PollTimeout)
	defer cancel()
	g, epoch, term, err := f.src.Base(fetchCtx)
	if err != nil {
		return fmt.Errorf("live: follower: fetch base: %w", err)
	}
	if epoch < f.store.Epoch() && !f.store.Fenced() {
		// Tail said our epoch predates the window, so the source's base
		// must be ahead of us; anything else is two sources talking.
		// (A fenced store is the exception: resyncing onto the surviving
		// lineage may legitimately rewind past its divergent suffix —
		// AdoptBase enforces the term condition.)
		return fmt.Errorf("live: follower: fetched base at epoch %d behind local epoch %d", epoch, f.store.Epoch())
	}
	if err := f.store.AdoptBase(g, epoch, term); err != nil {
		return err
	}
	f.baseFetches.Add(1)
	return nil
}
