// Package live makes the expert network mutable while it serves
// traffic. The paper's network is a *social* network — collaborations,
// skills and authority scores change continuously — but the
// expertgraph substrate is deliberately immutable (that is what makes
// it safe for lock-free concurrent readers). This package bridges the
// two with an epoch-versioned overlay:
//
//   - Store accepts mutations (add/remove experts and collaborations,
//     update authority/skills/edge weights) through a group-commit
//     pipeline: mutators enqueue onto an MPSC channel, a single
//     committer goroutine drains it in batches, writes one journal
//     record group with one fsync, and publishes one epoch covering
//     the whole batch. Each mutation still gets its own absolute
//     epoch number (the log stays strictly per-op), and every mutator
//     blocks on a per-op result future, so the synchronous error
//     contract and read-your-writes semantics are those of the old
//     one-lock-one-fsync-per-op path — only the throughput scaling is
//     new.
//   - Every commit produces a new immutable Snapshot, published with
//     an atomic pointer swap; readers resolve the current snapshot
//     without locks and keep a consistent view for as long as they
//     hold it (snapshot isolation).
//   - A Snapshot materializes a full *expertgraph.Graph lazily — the
//     frozen base graph is thawed and the mutation delta replayed —
//     and memoizes it, so a burst of mutations costs one rebuild per
//     *queried* epoch, not per mutation.
//   - A write-ahead journal makes mutations survive restarts: each is
//     appended (one JSON object per line) before it is applied, and
//     Open replays the journal onto the persisted base graph, ending
//     at the identical epoch.
//
// Incremental 2-hop cover maintenance lives in MaintainIndex, which
// repairs a PLL index across epochs with resumed pruned Dijkstras
// instead of rebuilding it.
package live

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/obs"
)

// Op identifies a mutation kind in the journal and the in-memory log.
type Op string

// Mutation kinds.
const (
	OpAddNode    Op = "add_node"
	OpAddEdge    Op = "add_edge"
	OpUpdateNode Op = "update_node"
	OpRemoveEdge Op = "remove_edge"
	OpRemoveNode Op = "remove_node"
	OpUpdateEdge Op = "update_edge"
)

// RemovedEdge records one incident edge dropped by a remove_node
// mutation: the far endpoint and the stored weight the edge carried.
// The list is captured at apply time so journal replay, overlay
// construction and decremental index repair are all self-contained —
// none of them has to reconstruct the pre-removal adjacency.
type RemovedEdge struct {
	V expertgraph.NodeID `json:"v"`
	W float64            `json:"w"`
}

// Mutation is one atomic change to the expert network — the unit of
// the write-ahead journal and of the per-epoch delta log. Exactly the
// fields of its Op are meaningful.
type Mutation struct {
	Op Op `json:"op"`

	// Term is the fencing term of the leader that minted this record
	// (see promote.go). Fresh local appends are stamped with the
	// store's current term at commit time; replicated records keep the
	// term they were minted under, which is how followers adopt a new
	// lineage's term — and how a deposed leader's stale-term records
	// are recognized and refused. 0 on records from before the cluster
	// ever promoted (term 0 predates fencing).
	Term uint64 `json:"term,omitempty"`

	// add_node
	Name      string   `json:"name,omitempty"`
	Authority float64  `json:"authority,omitempty"`
	Skills    []string `json:"skills,omitempty"`

	// add_edge / remove_edge / update_edge. W is the new weight for
	// add/update and the removed edge's last stored weight for
	// remove_edge (filled at apply time; decremental index repair needs
	// it); OldW is update_edge's previous weight (also filled at apply).
	U    expertgraph.NodeID `json:"u,omitempty"`
	V    expertgraph.NodeID `json:"v,omitempty"`
	W    float64            `json:"w,omitempty"`
	OldW float64            `json:"old_w,omitempty"`

	// update_node / remove_node. Edges lists the incident edges dropped
	// with a removed node, captured at apply time (see RemovedEdge).
	Node         expertgraph.NodeID `json:"node,omitempty"`
	SetAuthority *float64           `json:"set_authority,omitempty"`
	AddSkills    []string           `json:"add_skills,omitempty"`
	Edges        []RemovedEdge      `json:"edges,omitempty"`
}

// Validation errors returned by the mutators.
var (
	ErrUnknownNode   = errors.New("live: unknown node")
	ErrSelfLoop      = errors.New("live: self loop")
	ErrDuplicateEdge = errors.New("live: edge already exists")
	ErrUnknownEdge   = errors.New("live: unknown edge")
	ErrNegativeW     = errors.New("live: negative edge weight")
	ErrEmptyUpdate   = errors.New("live: update changes nothing")
	ErrEmptyName     = errors.New("live: empty expert name")
	// ErrRemovedNode rejects mutations referencing a tombstoned expert:
	// removal is permanent, the NodeID slot is never resurrected.
	ErrRemovedNode = errors.New("live: removed node")
	// ErrClosed is returned by every mutator after Close. Reads
	// (Snapshot, SnapshotAt, views) keep working.
	ErrClosed = errors.New("live: store closed")
)

// Config parameterizes Open.
type Config struct {
	// JournalPath enables the write-ahead journal ("" disables it). If
	// the file exists its mutations are replayed onto the base graph.
	// A compacted base graph persisted at JournalPath+".base" (see
	// Compact) supersedes the base graph passed to Open, and only the
	// journal suffix past its epoch is replayed.
	JournalPath string
	// Sync fsyncs the journal after every record. Off by default: a
	// process crash still keeps every completed write (the OS page
	// cache survives it), only a host power loss can drop the tail.
	Sync bool
	// CompactThreshold folds the journal into the persisted base graph
	// at Open time when the replayed suffix has at least this many
	// records, keeping boot replay O(recent churn). 0 disables
	// auto-compaction (Compact can still be called explicitly).
	CompactThreshold int
	// Metrics registers the store's instruments — apply latency,
	// journal append (+fsync) duration, fold duration, overlay-build
	// time, resident log length and epoch gauges — on the given
	// registry. Nil leaves the store entirely uninstrumented (the
	// hot-path observation calls become no-ops on nil instruments).
	Metrics *obs.Registry
}

// Store is the mutable overlay over one immutable base graph. All
// mutators are safe for concurrent use (they serialize on an internal
// lock); Snapshot is lock-free.
type Store struct {
	journalPath string
	snap        atomic.Pointer[Snapshot]

	mu sync.Mutex // serializes writers
	// base is the in-memory base graph; baseEpoch its absolute epoch: 0
	// for a fresh store, the fold epoch after Open adopted a compacted
	// base or Compact re-based in place. Epochs are absolute (they
	// survive compaction and restarts); log index i holds the mutation
	// of epoch baseEpoch+i+1. All four fields are mutated only under mu
	// (by apply and by Compact's re-base); lock-free readers never
	// touch them — they read the same values from the published
	// snapshot, which carries its own base/log references.
	base      *expertgraph.Graph
	baseEpoch uint64
	log       []Mutation // mutation log since base; len == epoch - baseEpoch
	// prevBaseEpoch/prevLog are the previous re-base generation: the
	// mutations of epochs (prevBaseEpoch, baseEpoch], retained so
	// MutationsSince — and through it incremental index repair — keeps
	// working across one re-base boundary. Exactly one generation is
	// kept (each re-base replaces it), so resident history is bounded
	// by two fold windows of churn, never by deployment lifetime.
	prevBaseEpoch uint64
	prevLog       []Mutation
	journal       *journal // nil when journaling is disabled
	closed        bool     // set by Close; mutators fail with ErrClosed
	// ioErr poisons the store after an unrecoverable journal failure
	// (a torn group that could not be rolled back, or a failed fsync):
	// every further mutation fails with it, because appending past the
	// tear would replay as interior corruption. Set under mu.
	ioErr error
	// compactMu serializes Compact calls (held across the base write
	// and journal swap; mutators keep running under mu meanwhile).
	compactMu sync.Mutex

	// Writer-side validation state, maintained so mutations are
	// validated in O(1)/O(log) without materializing a graph. nNodes is
	// the ID-space size (tombstoned nodes keep their slot); edgeSet
	// maps each live undirected edge to its stored weight, so removals
	// and re-weights can journal the previous weight without touching a
	// graph; degree holds each node's live edge count, against which
	// replay checks a journaled remove_node's edge list. removedNodes
	// holds the tombstoned IDs.
	nNodes       int
	nEdges       int
	edgeSet      map[uint64]float64
	degree       []int32
	removedNodes map[expertgraph.NodeID]struct{}

	// watermark is the background compactor's early-fold signal: when a
	// journal append crosses the registered record trigger, apply
	// nudges wmCh (non-blocking) so folds start promptly under write
	// bursts instead of waiting out the poll interval. Registered and
	// cleared under mu by the compactor.
	wmCh      chan struct{}
	wmRecords uint64

	// Group-commit plumbing. Mutators enqueue onto applyCh and block on
	// a per-op future; the committer goroutine (started by Open) drains
	// the channel in batches of up to commitBatchCap ops. closing gates
	// new senders during Close; senders counts mutators between the
	// gate check and their channel send, so Close knows when applyCh
	// can safely be closed. committerDone is closed when the committer
	// has drained everything and exited.
	applyCh       chan *applyReq
	closing       atomic.Bool
	senders       atomic.Int64
	committerDone chan struct{}

	// Cluster term state (promote.go): the persisted fencing token,
	// the epoch its lineage began at, and the demotion fence. Written
	// under mu (Open, Promote, Demote, AdoptBase, record-term adoption
	// in commitBatch); read lock-free by the serving layer.
	term      atomic.Uint64
	termStart atomic.Uint64
	fenced    atomic.Bool

	// watch is the epoch-advance notification: a channel closed (and
	// replaced) every time a new epoch's snapshot is published, so
	// WaitEpoch — and through it replication tailing and
	// read-your-writes gating — blocks on a channel instead of
	// polling. Swapped under mu; loaded lock-free.
	watch atomic.Pointer[chan struct{}]

	// Mutation counters for observability (atomics: read by /stats
	// without the writer lock).
	nodesAdded   atomic.Uint64
	edgesAdded   atomic.Uint64
	nodesUpdated atomic.Uint64
	edgesRemoved atomic.Uint64
	nodesRemoved atomic.Uint64
	edgesUpdated atomic.Uint64
	// materialized counts full-graph materializations (Snapshot.Graph
	// actually replaying the delta onto a thawed base) — the number the
	// overlay read path keeps at zero while serving queries.
	materialized atomic.Uint64
	compactions  atomic.Uint64
	// baseAdoptions counts wholesale base replacements (AdoptBase): a
	// follower recovering across a leader fold, never a local fold.
	baseAdoptions atomic.Uint64
	// commits counts group commits (published batches); commits ≤ epoch
	// and the gap is the batching win. refolds counts the overlay chains
	// the depth guard reset with a fold of the resident log over the base
	// (one O(|log|) build amortized over maxChainDepth O(|batch|) ones).
	commits atomic.Uint64
	refolds atomic.Uint64

	// Registry-backed instruments (all nil when Config.Metrics was nil;
	// observation on a nil instrument is a no-op). foldHist is observed
	// by Compact, overlayHist rides inside every published snapshot.
	applyHist   *obs.Histogram
	appendHist  *obs.Histogram
	foldHist    *obs.Histogram
	overlayHist *obs.Histogram
	batchHist   *obs.Histogram
	commitHist  *obs.Histogram
}

// Counters reports how many mutations of each kind the store has
// applied (including journal replay).
type Counters struct {
	NodesAdded   uint64 `json:"nodes_added"`
	EdgesAdded   uint64 `json:"edges_added"`
	NodesUpdated uint64 `json:"nodes_updated"`
	EdgesRemoved uint64 `json:"edges_removed"`
	NodesRemoved uint64 `json:"nodes_removed"`
	EdgesUpdated uint64 `json:"edges_updated"`
}

// countMutation folds one mutation's effect into running node/edge
// counts, the way stateApply moves the writer's counters. Node
// removals keep their ID slot, so nodes never shrinks.
func countMutation(m Mutation, nodes, edges *int) {
	switch m.Op {
	case OpAddNode:
		*nodes++
	case OpAddEdge:
		*edges++
	case OpRemoveEdge:
		*edges--
	case OpRemoveNode:
		*edges -= len(m.Edges)
	}
}

func edgeKey(u, v expertgraph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Open wraps base in a mutable store. With cfg.JournalPath set, an
// existing journal is replayed (restoring the pre-restart epoch) and
// subsequent mutations are appended to it. If a compacted base graph
// exists next to the journal (JournalPath+".base", written by
// Compact), it supersedes the passed base and only the journal suffix
// past its epoch is replayed — so replay stays O(churn since the last
// compaction) no matter how old the deployment is.
func Open(base *expertgraph.Graph, cfg Config) (*Store, error) {
	s := &Store{
		base:        base,
		journalPath: cfg.JournalPath,
	}
	if reg := cfg.Metrics; reg != nil {
		s.applyHist = reg.Histogram("authteam_live_apply_seconds",
			"Write-path latency of one mutation: enqueue, group commit, future resolution.", nil)
		s.appendHist = reg.Histogram("authteam_live_journal_append_seconds",
			"Journal append duration per record group, including fsync when Sync is on.", nil)
		s.batchHist = reg.Histogram("authteam_live_commit_batch_ops",
			"Mutations covered by one group commit (one journal write, one published epoch).",
			commitBatchBuckets)
		s.commitHist = reg.Histogram("authteam_live_commit_seconds",
			"Group-commit latency for one batch: validate, journal group write, apply, publish.", nil)
		s.foldHist = reg.Histogram("authteam_live_fold_seconds",
			"Journal compaction (fold) duration: materialize, base rewrite, journal swap.", nil)
		s.overlayHist = reg.Histogram("authteam_live_overlay_build_seconds",
			"Per-epoch overlay view construction time (first read of a fresh epoch).", nil)
		reg.GaugeFunc("authteam_live_log_len",
			"Resident mutation-log length (epoch minus base epoch).",
			func() float64 { return float64(s.LogLen()) })
		reg.GaugeFunc("authteam_live_epoch",
			"Current store epoch (mutations applied since the original base).",
			func() float64 { return float64(s.Epoch()) })
		reg.CounterFunc("authteam_live_compactions_total",
			"Journal compactions performed, including the Open-time auto-fold.",
			func() float64 { return float64(s.compactions.Load()) })
		reg.CounterFunc("authteam_live_base_adoptions_total",
			"Wholesale base replacements (follower recovery across a leader fold).",
			func() float64 { return float64(s.baseAdoptions.Load()) })
		reg.CounterFunc("authteam_live_materializations_total",
			"Full-graph materializations (thaw + delta replay).",
			func() float64 { return float64(s.materialized.Load()) })
		reg.CounterFunc("authteam_live_commits_total",
			"Group commits published; epoch minus this is the batching win.",
			func() float64 { return float64(s.commits.Load()) })
		reg.CounterFunc("authteam_live_overlay_refolds_total",
			"Full overlay refolds forced by the chain depth guard.",
			func() float64 { return float64(s.refolds.Load()) })
		reg.GaugeFunc("authteam_live_overlay_chain_depth",
			"Chain depth of the current epoch's overlay view (0 = refolded from base).",
			func() float64 { return float64(s.ChainDepth()) })
	}
	initWatch := make(chan struct{})
	s.watch.Store(&initWatch)
	var replay []Mutation
	if cfg.JournalPath != "" {
		cb, cbEpoch, cbTerm, err := loadBaseFile(basePath(cfg.JournalPath))
		if err != nil {
			return nil, err
		}
		if cb != nil {
			s.base, s.baseEpoch = cb, cbEpoch
		}
		muts, jhdr, j, err := openJournal(cfg.JournalPath, cfg.Sync)
		if err != nil {
			return nil, err
		}
		startEpoch := j.startEpoch
		// Recover the term state: the journal header's pair, raised by
		// any record minted under a later term (a follower adopts terms
		// through replicated records, so its header can lag them), and
		// raised again by the base file's term (the AdoptBase crash
		// window leaves a new base over an old journal). The fence flag
		// only ever comes from the header — a fenced store stops
		// applying records, so records can never out-vote it.
		ts := termState{term: jhdr.Term, termStart: jhdr.TermStart, fenced: jhdr.Fenced}
		for i := range muts {
			if muts[i].Term > ts.term {
				ts.term = muts[i].Term
				ts.termStart = startEpoch + uint64(i)
			}
		}
		if cbTerm > ts.term {
			ts.term, ts.termStart = cbTerm, cbEpoch
		}
		if s.baseEpoch > startEpoch+uint64(len(muts)) {
			// Base ahead of the whole journal: the crash window of a base
			// adoption (AdoptBase renames the base into place before
			// resetting the journal — the opposite order could lose
			// records). Every journaled epoch is already folded into the
			// base, so reset the journal to an empty file anchored there.
			slog.Warn("live: journal behind base; resetting journal to the base epoch",
				"journal", cfg.JournalPath,
				"journal_from", startEpoch,
				"journal_to", startEpoch+uint64(len(muts)),
				"base_epoch", s.baseEpoch)
			j.Close()
			staged, serr := stageJournal(cfg.JournalPath, s.baseEpoch, nil, cfg.Sync, ts)
			if serr != nil {
				return nil, serr
			}
			if j, serr = staged.install(cfg.JournalPath, nil); serr != nil {
				return nil, serr
			}
			muts, startEpoch = nil, s.baseEpoch
		}
		s.term.Store(ts.term)
		s.termStart.Store(ts.termStart)
		s.fenced.Store(ts.fenced)
		// The journal covers epochs startEpoch+1 .. startEpoch+len(muts);
		// records up to the base epoch are already folded into the base
		// (a crash between Compact's base rewrite and journal truncation
		// leaves exactly this overlap). A base below the journal's start
		// means the two files are from different histories.
		if s.baseEpoch < startEpoch {
			j.Close()
			return nil, fmt.Errorf("live: journal %s covers epochs %d..%d, base graph is at epoch %d",
				cfg.JournalPath, startEpoch, startEpoch+uint64(len(muts)), s.baseEpoch)
		}
		replay = muts[s.baseEpoch-startEpoch:]
		s.journal = j
	}

	s.resetWriterState()
	s.snap.Store(s.buildSnapshotLocked())

	// Replay is in effect one giant batch: each record is validated and
	// folded into the writer state, and a single snapshot is published
	// at the final epoch — readers only ever see the store fully
	// recovered. The shadow stays empty because stateApply runs per
	// record, so validation reads the real writer state directly.
	if len(replay) > 0 {
		sh := s.newBatchShadow()
		for i := range replay {
			m := replay[i]
			if _, err := s.validateMutation(&m, sh, false); err != nil {
				s.journal.Close()
				return nil, fmt.Errorf("live: journal record %d (epoch %d): %w", i+1, s.baseEpoch+uint64(i)+1, err)
			}
			s.stateApply(m)
		}
		s.snap.Store(s.buildSnapshotLocked())
		s.bumpWatch()
	}
	if cfg.CompactThreshold > 0 && len(replay) >= cfg.CompactThreshold {
		if _, err := s.Compact(); err != nil {
			s.journal.Close()
			return nil, err
		}
	}
	s.applyCh = make(chan *applyReq, commitBatchCap)
	s.committerDone = make(chan struct{})
	go s.committer()
	return s, nil
}

// resetWriterState rebuilds the O(1)-validation state — node/edge
// counts, the live-edge weight map, the degrees, the tombstone set —
// from the in-memory base graph. Called under mu (or before the store
// is shared): at Open, and when AdoptBase replaces the base wholesale.
func (s *Store) resetWriterState() {
	s.nNodes = s.base.NumNodes()
	s.nEdges = s.base.NumEdges()
	s.edgeSet = make(map[uint64]float64, s.nEdges)
	s.degree = make([]int32, s.nNodes)
	s.removedNodes = nil
	for u := expertgraph.NodeID(0); int(u) < s.nNodes; u++ {
		s.degree[u] = int32(s.base.Degree(u))
		s.base.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if u < v {
				s.edgeSet[edgeKey(u, v)] = w
			}
			return true
		})
		if s.base.Removed(u) {
			if s.removedNodes == nil {
				s.removedNodes = make(map[expertgraph.NodeID]struct{})
			}
			s.removedNodes[u] = struct{}{}
		}
	}
}

// bumpWatch wakes every WaitEpoch blocked on an epoch advance: the
// current watch channel is closed and a fresh one installed. Called
// under mu, after the new snapshot is published.
func (s *Store) bumpWatch() {
	next := make(chan struct{})
	if old := s.watch.Swap(&next); old != nil {
		close(*old)
	}
}

// WaitEpoch blocks until the store's epoch reaches target (returning
// true) or ctx is done (returning whether the epoch made it anyway).
// It is the primitive under epoch read-your-writes and replication
// tailing: a reader holding a mutation's epoch waits here instead of
// polling Snapshot.
func (s *Store) WaitEpoch(ctx context.Context, target uint64) bool {
	for {
		// Load the watch channel before checking the epoch: a publish
		// between the two closes exactly this channel, so the wake is
		// never missed.
		ch := s.watch.Load()
		if s.Epoch() >= target {
			return true
		}
		select {
		case <-*ch:
		case <-ctx.Done():
			return s.Epoch() >= target
		}
	}
}

// Close drains the commit pipeline and releases the journal. Mutations
// already enqueued are committed (and journaled) before the committer
// exits; mutations arriving after Close fail with ErrClosed. The store
// stays readable.
func (s *Store) Close() error {
	if s.closing.CompareAndSwap(false, true) {
		// New mutators now bounce off the closing gate before touching
		// applyCh; wait out the ones already past it (senders is
		// incremented before the gate check and decremented after the
		// send), then close the channel — the committer drains what is
		// left and exits.
		for s.senders.Load() != 0 {
			runtime.Gosched()
		}
		close(s.applyCh)
	}
	<-s.committerDone
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.journal == nil {
		return nil
	}
	// Close marks the journal closed in place (further appends fail)
	// but keeps it referenced so JournalStats still reports the real
	// record/byte counts.
	return s.journal.Close()
}

// Snapshot returns the current epoch's immutable view. It never
// blocks, and the returned snapshot stays valid (and consistent)
// however many mutations follow.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Epoch returns the current epoch: the number of mutations applied
// since the base graph.
func (s *Store) Epoch() uint64 { return s.snap.Load().epoch }

// SnapshotAt reconstructs the snapshot of a past epoch (ok=false when
// epoch is ahead of the store, or behind its base — a fold re-bases
// history into the base graph, and pre-base epochs can no longer be
// materialized). The mutation log is append-only, so a historical
// snapshot is just a shorter prefix of it, and its (nodes, edges)
// counts come from one pass over that prefix. Used to anchor state
// persisted at an earlier epoch (e.g. an on-disk 2-hop cover) so it can
// be repaired forward instead of discarded. The pass is bounded by the
// resident log, which the compactor keeps to about one fold window,
// and costs less than the index repair or rebuild that follows it.
//
// Everything is read from the captured snapshot — base graph and log —
// never from store fields, so the call is correct even while a
// concurrent Compact re-bases the store in place.
func (s *Store) SnapshotAt(epoch uint64) (*Snapshot, bool) {
	cur := s.Snapshot()
	if epoch > cur.epoch || epoch < cur.baseEpoch {
		return nil, false
	}
	if epoch == cur.epoch {
		return cur, true
	}
	log := cur.log[:epoch-cur.baseEpoch]
	nodes, edges := cur.base.NumNodes(), cur.base.NumEdges()
	for _, m := range log {
		countMutation(m, &nodes, &edges)
	}
	sn := &Snapshot{
		epoch: epoch, baseEpoch: cur.baseEpoch,
		base: cur.base, log: log, nodes: nodes, edges: edges,
		prevBaseEpoch: cur.prevBaseEpoch, prevLog: cur.prevLog, adoptions: cur.adoptions,
		matCtr: cur.matCtr, overlayHist: cur.overlayHist,
	}
	if epoch == cur.baseEpoch {
		sn.g = cur.base
	}
	return sn, true
}

// Materializations reports how many times a snapshot of this store
// materialized a full graph (thaw + delta replay). The overlay read
// path keeps this at zero for query serving; index rebuilds and
// compaction are the intended exceptions.
func (s *Store) Materializations() uint64 { return s.materialized.Load() }

// Compactions reports how many journal compactions the store has
// performed (including the auto-compaction at Open).
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// Commits reports how many group commits (published batches) the
// committer has performed; Epoch()−BaseEpoch-relative growth of the
// gap between epoch and commits is the batching win.
func (s *Store) Commits() uint64 { return s.commits.Load() }

// Refolds reports how many times the chain depth guard reset the
// overlay chain with a fold of the resident log over the base.
func (s *Store) Refolds() uint64 { return s.refolds.Load() }

// ChainDepth reports the chain depth of the current epoch's overlay
// view: 0 when the view folds the resident log over the base (or is
// the base, or is not built yet), k when it patches a depth k−1 view.
func (s *Store) ChainDepth() int {
	sn := s.snap.Load()
	if !sn.viewReady.Load() {
		return 0
	}
	return sn.view.depth
}

// BaseEpoch returns the epoch of the store's in-memory base graph: 0
// for a fresh store, the latest fold epoch after Open adopted a
// compacted base or Compact re-based the store in place.
func (s *Store) BaseEpoch() uint64 { return s.snap.Load().baseEpoch }

// LogLen returns the resident mutation-log length: the number of
// mutations applied since the in-memory base graph (epoch − base
// epoch). This is the quantity a re-base resets — under a background
// compactor it stays bounded by churn since the last fold, and it
// bounds the cost of the next OverlayView construction.
func (s *Store) LogLen() int {
	sn := s.snap.Load()
	return int(sn.epoch - sn.baseEpoch)
}

// Counters reports lifetime mutation counts by kind.
func (s *Store) Counters() Counters {
	return Counters{
		NodesAdded:   s.nodesAdded.Load(),
		EdgesAdded:   s.edgesAdded.Load(),
		NodesUpdated: s.nodesUpdated.Load(),
		EdgesRemoved: s.edgesRemoved.Load(),
		NodesRemoved: s.nodesRemoved.Load(),
		EdgesUpdated: s.edgesUpdated.Load(),
	}
}

// isRemoved reports whether id is tombstoned (caller holds mu).
func (s *Store) isRemoved(id expertgraph.NodeID) bool {
	_, gone := s.removedNodes[id]
	return gone
}

// setWatermark registers (or, with a nil channel, clears) the
// background compactor's journal record trigger; apply nudges ch
// non-blockingly whenever an append crosses it.
func (s *Store) setWatermark(ch chan struct{}, records uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wmCh, s.wmRecords = ch, records
}

// JournalStats reports the journal's record count and byte size, both
// zero when journaling is disabled.
func (s *Store) JournalStats() (records uint64, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return 0, 0
	}
	return s.journal.records, s.journal.bytes
}

// AddExpert adds a new expert and returns its NodeID and the epoch at
// which it became visible. Authority values below 1 are floored to 1
// (the Builder's rule, so a'(c) = 1/a(c) stays defined).
func (s *Store) AddExpert(name string, authority float64, skills []string) (expertgraph.NodeID, uint64, error) {
	id, epoch, err := s.Apply(Mutation{Op: OpAddNode, Name: name, Authority: authority, Skills: skills})
	return id, epoch, err
}

// AddCollaboration adds an undirected edge (u, v) with communication
// cost w and returns the epoch at which it became visible.
func (s *Store) AddCollaboration(u, v expertgraph.NodeID, w float64) (uint64, error) {
	_, epoch, err := s.Apply(Mutation{Op: OpAddEdge, U: u, V: v, W: w})
	return epoch, err
}

// UpdateExpert updates an existing expert's authority (when authority
// is non-nil) and/or grants additional skills.
func (s *Store) UpdateExpert(id expertgraph.NodeID, authority *float64, addSkills []string) (uint64, error) {
	_, epoch, err := s.Apply(Mutation{Op: OpUpdateNode, Node: id, SetAuthority: authority, AddSkills: addSkills})
	return epoch, err
}

// RemoveCollaboration removes the undirected edge (u, v) and returns
// the epoch at which the removal became visible.
func (s *Store) RemoveCollaboration(u, v expertgraph.NodeID) (uint64, error) {
	_, epoch, err := s.Apply(Mutation{Op: OpRemoveEdge, U: u, V: v})
	return epoch, err
}

// RemoveExpert tombstones expert id: its incident edges are dropped,
// its skills cleared, and every further mutation referencing it fails
// with ErrRemovedNode. The NodeID slot is never reused, so snapshots
// across the removal stay consistent.
func (s *Store) RemoveExpert(id expertgraph.NodeID) (uint64, error) {
	_, epoch, err := s.Apply(Mutation{Op: OpRemoveNode, Node: id})
	return epoch, err
}

// UpdateCollaboration replaces the communication cost of the existing
// edge (u, v) and returns the epoch at which the new weight became
// visible.
func (s *Store) UpdateCollaboration(u, v expertgraph.NodeID, w float64) (uint64, error) {
	_, epoch, err := s.Apply(Mutation{Op: OpUpdateEdge, U: u, V: v, W: w})
	return epoch, err
}

// Apply validates m, journals it, applies it and returns once the
// epoch containing it is published. It returns the assigned NodeID for
// add_node mutations (0 otherwise) and the mutation's own epoch.
// Mutations are applied in a total order; the returned epoch supports
// read-your-writes — any snapshot resolved afterwards has at least
// that epoch (the committer publishes a batch's snapshot before
// completing its futures).
//
// Internally the mutation rides the group-commit pipeline: it is
// enqueued to the committer goroutine, validated against the writer
// state plus the effects of earlier ops in the same batch, journaled
// as part of one record group, and applied with the rest of the batch
// under one epoch publish. The call blocks until all of that happened,
// so the error contract is exactly the old synchronous one.
func (s *Store) Apply(m Mutation) (expertgraph.NodeID, uint64, error) {
	var start time.Time
	if s.applyHist != nil {
		start = time.Now()
	}
	s.senders.Add(1)
	if s.closing.Load() {
		s.senders.Add(-1)
		return 0, 0, ErrClosed
	}
	req := &applyReq{m: m, done: make(chan applyResult, 1)}
	s.applyCh <- req
	s.senders.Add(-1)
	res := <-req.done
	if res.err == nil && s.applyHist != nil {
		s.applyHist.Observe(time.Since(start).Seconds())
	}
	return res.id, res.epoch, res.err
}

// ApplyGroup enqueues ms as one contiguous run through the commit
// pipeline and waits for all of them, returning the epoch of the last
// applied mutation, how many applied, and the first per-op error. The
// run shares the committer's group commits — a whole tail response
// costs one (or a few) journal fsyncs and epoch publishes instead of
// len(ms). Ops are committed in order; like Apply, each op's epoch is
// its own. The store must not be receiving interleaved mutations from
// other writers if the caller needs the run to be contiguous (a
// replication follower is the intended caller, and its store has no
// other writers by contract).
//
// The run fails closed on divergence: the first record to fail
// validation aborts every record sharing its commit batch and every
// later one, so nothing past the failure is committed — the store is
// left at a clean prefix boundary (a run longer than the committer's
// batch cap may have durably committed whole earlier batches), never
// with a suffix journaled at epochs shifted down by a dropped record.
func (s *Store) ApplyGroup(ms []Mutation) (lastEpoch uint64, applied int, err error) {
	if len(ms) == 0 {
		return s.Epoch(), 0, nil
	}
	s.senders.Add(1)
	if s.closing.Load() {
		s.senders.Add(-1)
		return 0, 0, ErrClosed
	}
	grp := &commitGroup{}
	reqs := make([]*applyReq, len(ms))
	for i := range ms {
		reqs[i] = &applyReq{m: ms[i], done: make(chan applyResult, 1), group: grp}
		s.applyCh <- reqs[i]
	}
	s.senders.Add(-1)
	for _, r := range reqs {
		res := <-r.done
		switch {
		case res.err != nil:
			if err == nil {
				err = res.err
			}
		default:
			applied++
			lastEpoch = res.epoch
		}
	}
	return lastEpoch, applied, err
}

// validateMutation checks m against the writer state overlaid with sh
// (the effects of earlier ops in the same uncommitted batch) and fills
// the apply-time fields: W/OldW for edge removals and re-weights, and
// the incident-edge list of a node removal — captured from the
// adjacency when fresh is true (the committer: local writes and
// follower apply), checked and re-weighted when false (journal replay,
// whose shadow is always empty, so the writer state is the truth).
// It returns the NodeID an add_node will be assigned. Caller holds mu.
func (s *Store) validateMutation(m *Mutation, sh *batchShadow, fresh bool) (expertgraph.NodeID, error) {
	var newID expertgraph.NodeID
	switch m.Op {
	case OpAddNode:
		if m.Name == "" {
			return 0, ErrEmptyName
		}
		if m.Authority < 1 {
			m.Authority = 1
		}
		newID = expertgraph.NodeID(sh.numNodes())
	case OpAddEdge:
		switch {
		case m.U == m.V:
			return 0, fmt.Errorf("%w: node %d", ErrSelfLoop, m.U)
		case m.W < 0:
			return 0, fmt.Errorf("%w: %v", ErrNegativeW, m.W)
		case m.U < 0 || int(m.U) >= sh.numNodes():
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.U)
		case m.V < 0 || int(m.V) >= sh.numNodes():
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.V)
		case sh.isRemoved(m.U):
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.U)
		case sh.isRemoved(m.V):
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.V)
		}
		if _, dup := sh.edgeWeight(m.U, m.V); dup {
			return 0, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, m.U, m.V)
		}
	case OpUpdateNode:
		if m.Node < 0 || int(m.Node) >= sh.numNodes() {
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.Node)
		}
		if sh.isRemoved(m.Node) {
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.Node)
		}
		if m.SetAuthority == nil && len(m.AddSkills) == 0 {
			return 0, ErrEmptyUpdate
		}
		if m.SetAuthority != nil && *m.SetAuthority < 1 {
			one := 1.0
			m.SetAuthority = &one
		}
	case OpRemoveEdge:
		switch {
		case m.U < 0 || int(m.U) >= sh.numNodes():
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.U)
		case m.V < 0 || int(m.V) >= sh.numNodes():
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.V)
		case sh.isRemoved(m.U):
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.U)
		case sh.isRemoved(m.V):
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.V)
		}
		w, ok := sh.edgeWeight(m.U, m.V)
		if !ok {
			return 0, fmt.Errorf("%w: (%d,%d)", ErrUnknownEdge, m.U, m.V)
		}
		// Journal the removed edge's stored weight: decremental index
		// repair and the overlay bounds bookkeeping both need it, and
		// replay must not depend on reconstructing pre-removal state.
		m.W, m.OldW = w, 0
	case OpUpdateEdge:
		switch {
		case m.W < 0:
			return 0, fmt.Errorf("%w: %v", ErrNegativeW, m.W)
		case m.U < 0 || int(m.U) >= sh.numNodes():
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.U)
		case m.V < 0 || int(m.V) >= sh.numNodes():
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.V)
		case sh.isRemoved(m.U):
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.U)
		case sh.isRemoved(m.V):
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.V)
		}
		old, ok := sh.edgeWeight(m.U, m.V)
		if !ok {
			return 0, fmt.Errorf("%w: (%d,%d)", ErrUnknownEdge, m.U, m.V)
		}
		if old == m.W {
			return 0, fmt.Errorf("%w: edge (%d,%d) already weighs %v", ErrEmptyUpdate, m.U, m.V, m.W)
		}
		m.OldW = old
	case OpRemoveNode:
		if m.Node < 0 || int(m.Node) >= sh.numNodes() {
			return 0, fmt.Errorf("%w: %d", ErrUnknownNode, m.Node)
		}
		if sh.isRemoved(m.Node) {
			return 0, fmt.Errorf("%w: %d", ErrRemovedNode, m.Node)
		}
		if fresh {
			// Fresh apply: capture the node's incident edges — the
			// pre-batch snapshot view adjusted by the staged batch
			// effects, so mid-batch removals see mid-batch adjacency.
			m.Edges = sh.incidentEdges(m.Node)
			break
		}
		// Replay: the journaled list must be the node's live adjacency
		// exactly — strictly ascending by far endpoint, one entry per
		// live edge — or the tombstone would keep live neighbours and no
		// later fold could materialize the graph. Weights come from the
		// writer state, like remove_edge's W.
		if d := s.degree[m.Node]; len(m.Edges) != int(d) {
			return 0, fmt.Errorf("live: remove_node %d lists %d edges, node has %d", m.Node, len(m.Edges), d)
		}
		for i := range m.Edges {
			e := &m.Edges[i]
			if i > 0 && e.V <= m.Edges[i-1].V {
				return 0, fmt.Errorf("live: remove_node %d edge list not strictly ascending at %d", m.Node, e.V)
			}
			w, ok := sh.edgeWeight(m.Node, e.V)
			if !ok {
				return 0, fmt.Errorf("%w: (%d,%d)", ErrUnknownEdge, m.Node, e.V)
			}
			e.W = w
		}
	default:
		return 0, fmt.Errorf("live: unknown op %q", m.Op)
	}
	return newID, nil
}

// stateApply folds one validated mutation into the writer state and
// the append-only log. It never publishes — the caller (committer batch, journal replay,
// follower apply) publishes once per batch. Caller holds mu.
func (s *Store) stateApply(m Mutation) {
	switch m.Op {
	case OpAddNode:
		s.nNodes++
		s.degree = append(s.degree, 0)
		s.nodesAdded.Add(1)
	case OpAddEdge:
		s.edgeSet[edgeKey(m.U, m.V)] = m.W
		s.nEdges++
		s.degree[m.U]++
		s.degree[m.V]++
		s.edgesAdded.Add(1)
	case OpUpdateNode:
		s.nodesUpdated.Add(1)
	case OpRemoveEdge:
		delete(s.edgeSet, edgeKey(m.U, m.V))
		s.nEdges--
		s.degree[m.U]--
		s.degree[m.V]--
		s.edgesRemoved.Add(1)
	case OpUpdateEdge:
		s.edgeSet[edgeKey(m.U, m.V)] = m.W
		s.edgesUpdated.Add(1)
	case OpRemoveNode:
		for _, e := range m.Edges {
			delete(s.edgeSet, edgeKey(m.Node, e.V))
			s.degree[e.V]--
		}
		s.nEdges -= len(m.Edges)
		s.degree[m.Node] = 0
		if s.removedNodes == nil {
			s.removedNodes = make(map[expertgraph.NodeID]struct{})
		}
		s.removedNodes[m.Node] = struct{}{}
		s.nodesRemoved.Add(1)
	}

	// Append-only log with structural sharing: every snapshot holds a
	// header over the same backing array, capped at its own epoch.
	// The writer only ever appends past every published length, so
	// readers never observe a write.
	s.log = append(s.log, m)
}

// buildSnapshotLocked assembles (without publishing) the snapshot of
// the current writer state: every whole-store publish (commit, replay,
// Open, re-base, base adoption) goes through it. Caller holds mu, or
// has exclusive access during Open.
func (s *Store) buildSnapshotLocked() *Snapshot {
	next := &Snapshot{
		epoch:         s.baseEpoch + uint64(len(s.log)),
		baseEpoch:     s.baseEpoch,
		base:          s.base,
		log:           s.log,
		prevBaseEpoch: s.prevBaseEpoch,
		prevLog:       s.prevLog,
		adoptions:     s.baseAdoptions.Load(),
		nodes:         s.nNodes,
		edges:         s.nEdges,
		matCtr:        &s.materialized,
		overlayHist:   s.overlayHist,
	}
	if next.epoch == next.baseEpoch {
		next.g = s.base
	}
	return next
}

// Snapshot is one epoch's immutable, consistent view of the network.
// It is safe for concurrent use. A snapshot carries its own base graph
// and log references, so it stays valid — and keeps answering every
// read — after the store re-bases in place (Compact swaps the store's
// base and resets its log, but never mutates a published snapshot).
type Snapshot struct {
	epoch     uint64
	baseEpoch uint64 // epoch of base; log[i] is the mutation of epoch baseEpoch+i+1
	base      *expertgraph.Graph
	log       []Mutation // the epoch−baseEpoch mutations since base
	// prevBaseEpoch/prevLog retain the previous re-base generation's
	// mutations — epochs (prevBaseEpoch, baseEpoch] — so MutationsSince
	// can bridge exactly one re-base boundary (see Store.prevLog).
	prevBaseEpoch uint64
	prevLog       []Mutation
	nodes         int
	edges         int
	matCtr        *atomic.Uint64 // store's materialization counter (may be nil)
	overlayHist   *obs.Histogram // overlay-build duration instrument (may be nil)

	// adoptions is the store's BaseAdoptions count when this snapshot
	// was published. Epochs compare only within one adoption lineage:
	// an adoption may land on (or, fenced, rewind below) epochs the
	// store already passed, so two snapshots with different counts have
	// no history between them, whatever their epochs say.
	adoptions uint64

	once sync.Once
	g    *expertgraph.Graph
	err  error

	// view is the epoch's overlay (nil at the base epoch, where View
	// answers from the base graph). viewReady flips true once it is
	// built (by View, or preset by the committer before publication).
	// The committer loads it to decide whether the next batch can extend
	// this epoch's view without forcing a build nobody asked for.
	viewOnce  sync.Once
	view      *OverlayView
	viewReady atomic.Bool
}

// Epoch returns the snapshot's epoch (the base epoch = the unmodified
// base graph).
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// BaseEpoch returns the epoch of the base graph this snapshot reads
// through; Epoch−BaseEpoch is the delta the snapshot's overlay view
// patches over the base CSR.
func (sn *Snapshot) BaseEpoch() uint64 { return sn.baseEpoch }

// Adoptions returns how many base adoptions (AdoptBase) the store had
// made when it published this snapshot. Epochs order two snapshots of
// one store only when their counts are equal: state derived from a
// snapshot with an older count belongs to a discarded lineage, however
// its epoch compares.
func (sn *Snapshot) Adoptions() uint64 { return sn.adoptions }

// NumNodes returns the expert count at this epoch without
// materializing the graph.
func (sn *Snapshot) NumNodes() int { return sn.nodes }

// NumEdges returns the undirected edge count at this epoch without
// materializing the graph.
func (sn *Snapshot) NumEdges() int { return sn.edges }

// Graph materializes (and memoizes) the full expert network at this
// epoch: the base graph is thawed and the mutation delta replayed.
// Every caller of the same snapshot shares one materialization.
//
// Query serving does not need this — View answers every read without
// copying the graph — so materialization is reserved for the jobs that
// genuinely want a packed CSR copy: full 2-hop index rebuilds and
// journal compaction. Each actual materialization is counted on the
// store (see Store.Materializations).
func (sn *Snapshot) Graph() (*expertgraph.Graph, error) {
	sn.once.Do(func() {
		if sn.g != nil { // a base-epoch snapshot carries the base graph directly
			return
		}
		if sn.matCtr != nil {
			sn.matCtr.Add(1)
		}
		sn.g, sn.err = materialize(sn.base, sn.log)
	})
	return sn.g, sn.err
}

// View returns the epoch's read-only graph view without materializing
// anything: the base graph itself at the base epoch, and an
// OverlayView afterwards (preset by the committer, or folded from the
// resident log over the base on first use and memoized per snapshot).
// This is the read path the whole query stack — transform fit,
// distance oracles, Algorithm 1, team evaluation — consumes.
func (sn *Snapshot) View() expertgraph.GraphView {
	if sn.epoch == sn.baseEpoch {
		return sn.base
	}
	sn.viewOnce.Do(func() {
		var start time.Time
		if sn.overlayHist != nil {
			start = time.Now()
		}
		sn.view = newOverlay(sn.base, sn.log[:sn.epoch-sn.baseEpoch], sn.nodes, sn.edges)
		if sn.overlayHist != nil {
			sn.overlayHist.Observe(time.Since(start).Seconds())
		}
		sn.viewReady.Store(true)
	})
	return sn.view
}

// MutationsSince returns the mutations applied after epoch `from` up
// to this snapshot, or ok=false when from is ahead of this snapshot or
// predates the retained history window. The window is the current
// re-base generation plus exactly one generation back: a fold re-bases
// the store but keeps the folded generation's log (prevLog), so state
// anchored shortly before a fold — a resident 2-hop cover, most
// commonly — can still be repaired forward instead of rebuilt. Epochs
// at or below prevBaseEpoch (two or more folds ago) are honestly
// refused; their history is gone from memory.
func (sn *Snapshot) MutationsSince(from uint64) (muts []Mutation, ok bool) {
	if from > sn.epoch {
		return nil, false
	}
	if from >= sn.baseEpoch {
		return sn.log[from-sn.baseEpoch : sn.epoch-sn.baseEpoch], true
	}
	if sn.prevLog == nil || from < sn.prevBaseEpoch {
		return nil, false
	}
	// Bridge one re-base boundary: prevLog covers (prevBaseEpoch,
	// baseEpoch], log covers (baseEpoch, epoch].
	bridge := sn.prevLog[from-sn.prevBaseEpoch:]
	cur := sn.log[:sn.epoch-sn.baseEpoch]
	out := make([]Mutation, 0, len(bridge)+len(cur))
	out = append(out, bridge...)
	return append(out, cur...), true
}

// materialize replays the delta onto a thawed copy of base.
func materialize(base *expertgraph.Graph, muts []Mutation) (*expertgraph.Graph, error) {
	extraNodes, extraEdges := 0, 0
	for _, m := range muts {
		switch m.Op {
		case OpAddNode:
			extraNodes++
		case OpAddEdge:
			extraEdges++
		}
	}
	b := base.Thaw(extraNodes, extraEdges)
	for _, m := range muts {
		switch m.Op {
		case OpAddNode:
			b.AddNode(m.Name, m.Authority, m.Skills...)
		case OpAddEdge:
			b.AddEdge(m.U, m.V, m.W)
		case OpUpdateNode:
			if m.SetAuthority != nil {
				b.SetAuthority(m.Node, *m.SetAuthority)
			}
			for _, sk := range m.AddSkills {
				b.AddSkillTo(m.Node, sk)
			}
		case OpRemoveEdge:
			b.RemoveEdge(m.U, m.V)
		case OpUpdateEdge:
			b.UpdateEdge(m.U, m.V, m.W)
		case OpRemoveNode:
			for _, e := range m.Edges {
				b.RemoveEdge(m.Node, e.V)
			}
			b.RemoveNode(m.Node)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("live: materialize: %w", err)
	}
	// Build computed tight bounds over the surviving values; widen them
	// to the epoch's covering bounds so the materialized graph and the
	// overlay serving the same epoch answer bit-identical normalization
	// bounds (a §3.2.2 invariant — disagreeing bounds would re-scale
	// every transformed edge weight and silently invalidate the 2-hop
	// cover built over the other view).
	g.WidenBounds(coverBounds(base, muts))
	return g, nil
}

// coverBounds replays newOverlay's covering-bounds fold over the delta:
// seed from the base graph's bounds where its populations are nonempty,
// expand with every value the delta introduces, ignore retirements. The
// result equals the overlay's bounds exactly — same fold over the same
// floats, and min/max folds are order-insensitive.
func coverBounds(base *expertgraph.Graph, muts []Mutation) (minW, maxW, minInv, maxInv float64) {
	haveW := base.NumEdges() > 0
	if haveW {
		minW, maxW = base.EdgeWeightBounds()
	}
	haveInv := base.NumNodes() > base.NumRemoved()
	if haveInv {
		minInv, maxInv = base.InvAuthorityBounds()
	}
	foldW := func(w float64) {
		if !haveW {
			minW, maxW, haveW = w, w, true
			return
		}
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	foldInv := func(inv float64) {
		if !haveInv {
			minInv, maxInv, haveInv = inv, inv, true
			return
		}
		if inv < minInv {
			minInv = inv
		}
		if inv > maxInv {
			maxInv = inv
		}
	}
	for _, m := range muts {
		switch m.Op {
		case OpAddNode:
			foldInv(1 / m.Authority)
		case OpAddEdge:
			foldW(m.W)
		case OpUpdateEdge:
			foldW(m.W)
		case OpUpdateNode:
			if m.SetAuthority != nil {
				foldInv(1 / *m.SetAuthority)
			}
		}
	}
	return
}
