// Package node is the serving core shared by the HTTP daemon
// (internal/server) and the embedded client (package authteam): one
// live store with its journal, background compactor and replication
// follower, a memo of transform fits, and the set of 2-hop covers the
// paper amortizes over many DIST queries (§4.1). Both entry points ask
// a Node for a snapshot, its fit and its cover, so each of these
// concepts has one implementation.
//
// Derived state is keyed by snapshot lineage, not by epoch alone: a
// base adoption (a follower's bootstrap, or a fenced store resyncing
// during failover) may land on an epoch the store already passed, or
// rewind below it, and state derived before it belongs to a discarded
// history.
//
// The package must not import internal/server: that would register
// net/http/pprof's handlers in every program embedding a client.
package node

import (
	"errors"
	"sync"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/obs"
	"authteam/internal/oracle"
	"authteam/internal/repl"
	"authteam/internal/transform"
)

// Config parameterizes a Node. Every field is filled from settings the
// server or the client already carries.
type Config struct {
	// Graph is the starting network; nil starts empty (a follower that
	// bootstraps over the wire).
	Graph *expertgraph.Graph
	// JournalPath, JournalSync, CompactThreshold and CommitBatch
	// configure the store (see live.Config).
	JournalPath      string
	JournalSync      bool
	CompactThreshold int
	CommitBatch      int
	// CompactInterval starts the background compactor (0 disables it;
	// it requires JournalPath). CompactThreshold and CompactBytes are
	// its triggers, and OnFold, when set, observes every fold.
	CompactInterval time.Duration
	CompactBytes    int64
	OnFold          func(live.CompactStats, time.Duration, error)
	// FollowURL makes the node a read replica of the leader at this
	// base URL; FollowPoll bounds one replication long-poll.
	FollowURL  string
	FollowPoll time.Duration
	// NoNormalize fits without the min–max normalization of Definition 4.
	NoNormalize bool
	// RepairBudget caps the delta a resident cover is carried across by
	// incremental repair (0 means unbounded, negative disables repair).
	RepairBudget int
	// IndexPath is the prefix built covers are persisted under
	// (<IndexPath>.pll-<key>); empty disables persistence.
	IndexPath string
	// Metrics receives the store, replication-source, follower and
	// cover instruments; nil disables them.
	Metrics *obs.Registry
}

// Node owns one live store and everything derived from it.
type Node struct {
	store     *live.Store
	compactor *live.Compactor
	indexes   *indexSet
	normalize bool

	// The follower is guarded by followMu because a client's failover
	// restarts it (Refollow) while queries read its stats, and Close must
	// not race a restart. closed marks the node shut down so a late
	// Refollow cannot start a loop on a closed store.
	followMu   sync.Mutex
	follower   *live.Follower
	closed     bool
	followPoll time.Duration
	metrics    *obs.Registry

	// fits memoizes transform fits per (γ, λ) and snapshot lineage.
	// Fitting is O(n), so the map is simply cleared if a parameter sweep
	// (or a long mutation stream) overgrows it.
	fitMu sync.Mutex
	fits  map[fitKey]*transform.Params
}

type fitKey struct {
	gamma, lambda    float64
	epoch, adoptions uint64
}

// Open validates cfg, opens the store and starts the background loops
// it asks for. On any error after the store opened, the store is closed
// again.
func Open(cfg Config) (*Node, error) {
	if cfg.CompactInterval > 0 && cfg.JournalPath == "" {
		return nil, errors.New("CompactInterval requires a journal (nothing to fold without one)")
	}
	g := cfg.Graph
	if g == nil {
		var err error
		if g, err = expertgraph.NewBuilder(0, 0).Build(); err != nil {
			return nil, err
		}
	}
	store, err := live.Open(g, live.Config{
		JournalPath:      cfg.JournalPath,
		Sync:             cfg.JournalSync,
		CompactThreshold: cfg.CompactThreshold,
		CommitBatch:      cfg.CommitBatch,
		Metrics:          cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{
		store:      store,
		indexes:    newIndexSet(cfg.IndexPath, store, cfg.RepairBudget, !cfg.NoNormalize, cfg.Metrics),
		normalize:  !cfg.NoNormalize,
		followPoll: cfg.FollowPoll,
		metrics:    cfg.Metrics,
		fits:       make(map[fitKey]*transform.Params),
	}
	if cfg.CompactInterval > 0 {
		n.compactor, err = store.StartCompactor(live.CompactorConfig{
			Interval:   cfg.CompactInterval,
			MinRecords: uint64(max(cfg.CompactThreshold, 0)),
			MaxBytes:   cfg.CompactBytes,
			OnFold:     cfg.OnFold,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	if cfg.FollowURL != "" {
		n.follower = n.startFollower(cfg.FollowURL)
		if reg := cfg.Metrics; reg != nil {
			// Lag in epochs and in seconds: the pair a balancer needs —
			// epochs say how much history is missing, seconds keep
			// growing when the leader is unreachable and no epoch delta
			// is observable.
			stat := func(f func(live.FollowerStats) float64) func() float64 {
				return func() float64 {
					st, _ := n.FollowerStats()
					return f(st)
				}
			}
			reg.GaugeFunc("authteam_replication_lag_epochs",
				"Follower epoch lag behind the leader (0 when caught up).",
				stat(func(st live.FollowerStats) float64 { return float64(st.Lag) }))
			reg.GaugeFunc("authteam_replication_lag_seconds",
				"Seconds since the follower last confirmed catch-up (0 while caught up).",
				stat(func(st live.FollowerStats) float64 { return st.LagSeconds }))
			reg.CounterFunc("authteam_replication_polls_total",
				"Replication tail round-trips, including idle long-polls.",
				stat(func(st live.FollowerStats) float64 { return float64(st.Polls) }))
			reg.CounterFunc("authteam_replication_applied_total",
				"Journal records replayed onto the local store.",
				stat(func(st live.FollowerStats) float64 { return float64(st.Applied) }))
			reg.CounterFunc("authteam_replication_base_fetches_total",
				"Full base adoptions (fold-boundary catch-ups).",
				stat(func(st live.FollowerStats) float64 { return float64(st.BaseFetches) }))
			reg.CounterFunc("authteam_replication_errors_total",
				"Transient replication source failures.",
				stat(func(st live.FollowerStats) float64 { return float64(st.Errors) }))
		}
	}
	return n, nil
}

// startFollower starts a replication loop tailing url. The source
// claims the store's term on every tail, so a superseded upstream
// fences the store (and the loop stops, demoted) instead of feeding it
// a stale lineage.
func (n *Node) startFollower(url string) *live.Follower {
	src := repl.NewHTTPSource(url, nil).WithTerm(n.store.Term).Instrument(n.metrics)
	return live.StartFollower(n.store, src, live.FollowerConfig{PollTimeout: n.followPoll})
}

// Store returns the node's live store.
func (n *Node) Store() *live.Store { return n.store }

// Params returns the memoized transform fit for (γ, λ) at snap.
func (n *Node) Params(snap *live.Snapshot, gamma, lambda float64) (*transform.Params, error) {
	key := fitKey{gamma: gamma, lambda: lambda, epoch: snap.Epoch(), adoptions: snap.Adoptions()}
	n.fitMu.Lock()
	defer n.fitMu.Unlock()
	if p, ok := n.fits[key]; ok {
		return p, nil
	}
	p, err := transform.Fit(snap.View(), gamma, lambda, transform.Options{Normalize: n.normalize})
	if err != nil {
		return nil, err
	}
	if len(n.fits) >= 256 {
		clear(n.fits)
	}
	n.fits[key] = p
	return p, nil
}

// Index returns a 2-hop cover answering method m's distances under p
// at snap, or nil when none is current: the caller then answers with
// exact per-root Dijkstra while a rebuild runs in the background. p
// must be the node's fit of snap.
func (n *Node) Index(snap *live.Snapshot, p *transform.Params, m core.Method) oracle.Oracle {
	return n.indexes.forMethod(snap, p, m)
}

// IndexStats is a snapshot of the cover set's maintenance counters,
// as the live section of GET /stats reports them.
type IndexStats struct {
	// PendingRebuild is true while a background rebuild is in flight.
	PendingRebuild bool `json:"pending_rebuild"`
	// IncrementalRepairs counts repairs, FullRebuilds full builds (cold
	// start, unloadable file, background refresh).
	IncrementalRepairs uint64 `json:"incremental_repairs"`
	// Repair-kind breakdown: inserts, decremental (edge/node removals)
	// and re-weights (edge weight or authority changes) absorbed
	// without a rebuild. Under mixed churn these climb while
	// FullRebuilds stays flat — the fully dynamic 2-hop cover at work.
	RepairsInsert      uint64 `json:"repairs_insert"`
	RepairsDecremental uint64 `json:"repairs_decremental"`
	RepairsReweight    uint64 `json:"repairs_reweight"`
	FullRebuilds       uint64 `json:"full_rebuilds"`
}

// IndexStats reports the cover set's maintenance counters.
func (n *Node) IndexStats() IndexStats { return n.indexes.stats() }

// CompactorStats reports the background fold loop (zero value when it
// is disabled).
func (n *Node) CompactorStats() live.CompactorStats {
	if n.compactor == nil {
		return live.CompactorStats{}
	}
	return n.compactor.Stats()
}

// FollowerStats reports the current replication loop; ok is false on a
// node that never followed.
func (n *Node) FollowerStats() (live.FollowerStats, bool) {
	n.followMu.Lock()
	f := n.follower
	n.followMu.Unlock()
	if f == nil {
		return live.FollowerStats{}, false
	}
	return f.Stats(), true
}

// StopFollower stops the replication loop and waits for its in-flight
// apply, as a promotion's drain step requires. The stopped loop keeps
// reporting its final stats.
func (n *Node) StopFollower() {
	n.followMu.Lock()
	f := n.follower
	n.followMu.Unlock()
	if f != nil {
		f.Stop()
	}
}

// Refollow restarts the replication loop against the leader at url. The
// old loop is stopped (it may already have stopped itself: its first
// contact with a demoted leader fences the local store) and a fresh one
// started. If the store was fenced in the meantime, the new loop's
// bootstrap resyncs it wholesale — AdoptBase of the new lineage's base,
// which discards the divergent suffix and clears the fence — so the
// node rejoins the cluster instead of serving frozen state. It does
// nothing on a closed node or one that never followed.
func (n *Node) Refollow(url string) {
	n.followMu.Lock()
	defer n.followMu.Unlock()
	if n.closed || n.follower == nil {
		return
	}
	n.follower.Stop()
	n.follower = n.startFollower(url)
}

// Close stops the replication follower and background compactor (if
// any) and releases the journal. Reads keep working; further mutations
// fail with live.ErrClosed. The follower stops first — its apply loop
// writes through the store the other two steps shut down.
func (n *Node) Close() error {
	n.followMu.Lock()
	n.closed = true
	f := n.follower
	n.followMu.Unlock()
	if f != nil {
		f.Stop()
	}
	if n.compactor != nil {
		n.compactor.Stop()
	}
	return n.store.Close()
}
