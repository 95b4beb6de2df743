// Package authteam discovers teams of experts in social networks,
// optimizing both communication cost and expert authority. It
// implements "Authority-Based Team Discovery in Social Networks"
// (Zihayat, An, Golab, Kargar, Szlichta — EDBT 2017): given an expert
// network whose nodes carry skills and an authority value (such as
// h-index) and whose edges carry communication costs, it finds
// connected teams covering a set of required skills under three
// ranking objectives —
//
//   - CC: minimize communication cost (prior state of the art),
//   - CA-CC: trade communication cost against connector authority
//     with parameter γ,
//   - SA-CA-CC: additionally trade skill-holder authority with
//     parameter λ,
//
// plus Random and Exact baselines and Pareto-front discovery over the
// three raw objectives. All problems except pure skill-holder
// authority are NP-hard; the discovery algorithms are the paper's
// greedy search (Algorithm 1) over a transformed graph, with exact
// distances served either by per-root Dijkstra or by a prebuilt 2-hop
// cover (pruned landmark labeling) index.
//
// # Quick start
//
//	g := authteam.NewGraphBuilder(0, 0)
//	alice := g.AddNode("alice", 12, "databases")
//	bob := g.AddNode("bob", 3, "networks")
//	g.AddEdge(alice, bob, 0.4)
//	graph, _ := g.Build()
//	client, _ := authteam.New(graph, authteam.Options{Gamma: 0.6, Lambda: 0.6})
//	team, _ := client.BestTeam(authteam.SACACC, []string{"databases", "networks"})
//
// See the examples directory for corpus-scale usage.
package authteam

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/core"
	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/obs"
	"authteam/internal/oracle"
	"authteam/internal/repl"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// Re-exported graph model types.
type (
	// Graph is an immutable expert network.
	Graph = expertgraph.Graph
	// GraphView is the read-only surface every discovery algorithm
	// consumes; *Graph and the live mutation overlay both satisfy it.
	GraphView = expertgraph.GraphView
	// GraphBuilder assembles a Graph.
	GraphBuilder = expertgraph.Builder
	// NodeID identifies an expert.
	NodeID = expertgraph.NodeID
	// SkillID identifies a skill.
	SkillID = expertgraph.SkillID
	// Team is a discovered team (a connected subgraph with its
	// skill→expert assignment).
	Team = team.Team
	// Score holds every objective of the paper evaluated on one team.
	Score = team.Score
	// Profile summarizes a team's authority and publication statistics.
	Profile = team.Profile
	// Method selects the ranking strategy.
	Method = core.Method
	// ParetoTeam is a non-dominated team with its (CC, CA, SA) vector.
	ParetoTeam = core.ParetoTeam
	// Corpus is a bibliographic corpus (authors, papers, venues).
	Corpus = dblp.Corpus
)

// Ranking strategies.
const (
	// CC minimizes communication cost only (Problem 1).
	CC = core.CC
	// CACC minimizes γ·CA + (1−γ)·CC (Problems 2–3).
	CACC = core.CACC
	// SACACC minimizes λ·SA + (1−λ)·CA-CC (Problem 5).
	SACACC = core.SACACC
)

// Re-exported sentinel errors.
var (
	ErrNoTeam         = core.ErrNoTeam
	ErrNoExpert       = core.ErrNoExpert
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrClosed is returned by mutators after Close (queries keep
	// working).
	ErrClosed = live.ErrClosed
	// ErrRemovedNode is returned by mutators referencing a tombstoned
	// expert (removal is permanent; NodeIDs are never reused).
	ErrRemovedNode = live.ErrRemovedNode
	// ErrUnknownEdge is returned when removing or re-weighting a
	// collaboration that does not exist.
	ErrUnknownEdge = live.ErrUnknownEdge
	// ErrUnknownSkill is returned when a requested skill name is not in
	// the graph's skill universe.
	ErrUnknownSkill = errors.New("authteam: unknown skill")
	// ErrReplicationLag is returned by a following client's mutators
	// when the write committed at the leader but did not replicate back
	// within Options.FollowWait. The mutation is durable at the leader;
	// only the local read-your-writes guarantee timed out.
	ErrReplicationLag = errors.New("authteam: replication lag")
)

// NewGraphBuilder returns a builder with capacity hints.
func NewGraphBuilder(nodeHint, edgeHint int) *GraphBuilder {
	return expertgraph.NewBuilder(nodeHint, edgeHint)
}

// MetricsRegistry is a dependency-free metrics registry (atomic
// counters, gauges and histograms with Prometheus text exposition via
// WritePrometheus). Pass one in Options.Metrics to have the client's
// live store register its instruments on it.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Options configures a Client.
type Options struct {
	// Gamma trades connector authority against communication cost
	// (0 = pure communication cost, 1 = pure connector authority).
	Gamma float64
	// Lambda trades skill-holder authority against the rest.
	Lambda float64
	// BuildIndex constructs 2-hop cover indexes at client creation:
	// slower startup, near-constant-time distance queries afterwards
	// (the paper's configuration). Without it every discovery call
	// runs per-root Dijkstra — fine for small graphs and tests. After
	// live mutations the indexes are carried forward by incremental
	// repair when possible and rebuilt otherwise, lazily on the next
	// query.
	BuildIndex bool
	// NoNormalize disables the min–max normalization of Definition 4
	// (normalization is on by default, as in the paper).
	NoNormalize bool
	// Journal enables the write-ahead mutation journal at the given
	// path: mutations applied through the client survive restarts and
	// are replayed onto the graph by the next New call with the same
	// path.
	Journal string
	// CompactThreshold folds the journal into a persisted base graph
	// (Journal+".base") at client creation when at least this many
	// records had to be replayed, keeping future replays O(recent
	// churn). 0 disables the creation-time fold; CompactJournal folds
	// on demand. With CompactInterval set it is also the background
	// compactor's record trigger.
	CompactThreshold int
	// CompactInterval starts a background compactor inside the client:
	// at this (jittered) cadence it folds the journal and re-bases the
	// in-memory store while queries and mutations keep flowing, so a
	// long-lived client's resident state stays O(churn since the last
	// fold). 0 disables it. Requires Journal.
	CompactInterval time.Duration
	// CompactBytes is the background compactor's journal-size trigger
	// (0 disables the byte trigger).
	CompactBytes int64
	// CommitBatch caps how many queued mutations the store's group
	// committer covers with one journal write + epoch publish; ≤ 0
	// keeps the default (256).
	CommitBatch int
	// Follow turns the client into a read replica of the team discovery
	// server at this base URL (e.g. "http://leader:7411"): the local
	// store is bootstrapped and kept current from the leader's
	// replication log, queries run locally, and mutations are forwarded
	// to the leader and then waited for locally so read-your-writes
	// holds. New may be called with a nil graph in this mode. Empty
	// (the default) means a standalone client.
	Follow string
	// Peers lists candidate cluster nodes (base URLs) for mutation
	// failover on a following client. When a forward fails because the
	// target was fenced, demoted, or unreachable, the client asks every
	// peer for its /v1/cluster/role, repoints at the leader claiming
	// the highest term, and retries the mutation once. Empty disables
	// failover (a failed forward is returned as-is).
	Peers []string
	// FollowPoll bounds one replication long-poll (default 25s).
	FollowPoll time.Duration
	// FollowWait bounds how long a forwarded mutation waits for its
	// epoch to replicate back before returning ErrReplicationLag
	// (default 5s).
	FollowWait time.Duration
	// Metrics registers the client's store instruments (apply latency,
	// journal append/fsync, fold duration, overlay builds, resident log
	// length) on the given registry, e.g. one the embedding program
	// already exposes at /metrics. Nil disables instrumentation; the
	// client works identically either way.
	Metrics *obs.Registry
}

// clientState is the per-epoch derived serving state: the epoch's
// zero-copy graph view, the fitted parameterization and (optionally)
// the 2-hop cover indexes. It is immutable once published. No graph is
// materialized to serve queries — the view reads through the base CSR
// plus the mutation delta; only a full index rebuild (and Graph())
// materializes.
type clientState struct {
	snap   *live.Snapshot
	g      GraphView
	params *transform.Params
	rawIdx *oracle.PLLOracle // nil unless BuildIndex
	gIdx   *oracle.PLLOracle
}

// clientRepairBudget caps how many delta mutations the client absorbs
// by incremental index repair before preferring a rebuild.
const clientRepairBudget = 512

// Client answers team discovery queries over one expert network and
// one (γ, λ) parameterization, and accepts live mutations (AddExpert,
// AddCollaboration, UpdateExpert) that take effect atomically between
// queries. It is safe for concurrent use: every query runs against one
// epoch snapshot, and derived state (parameter fit, indexes) is
// refreshed lazily — incrementally when the mutation delta allows —
// on the first query after a mutation.
type Client struct {
	store *live.Store
	opt   Options
	// compactor is the background journal-fold loop (nil unless
	// Options.CompactInterval and Journal are set).
	compactor *live.Compactor
	// follower and leader implement replica mode (nil unless
	// Options.Follow is set): follower is the background apply loop
	// pulling the leader's log, leader forwards this client's
	// mutations. leader is behind an atomic pointer because failover
	// (Options.Peers) repoints it while mutators run; follower is
	// guarded by followMu because failover restarts it too (refollow),
	// and Close must not race a restart. followClosed marks the client
	// shut down so a late refollow cannot start a loop on a closed
	// store.
	leader       atomic.Pointer[repl.Leader]
	followMu     sync.Mutex
	follower     *live.Follower
	followClosed bool

	mu sync.Mutex
	st *clientState
	// refresh is the latch of an in-flight state refresh; queries
	// needing a newer epoch wait on it instead of redundantly
	// rebuilding, and the expensive work (transform fit, index
	// repair/rebuild) runs outside mu so Epoch()/mutators never block
	// behind it.
	refresh chan struct{}
}

// New creates a client over g. With Options.Follow set, g may be nil:
// the client starts empty and catches up from the leader's replication
// log in the background (queries work immediately, against whatever
// prefix has replicated).
func New(g *Graph, opt Options) (*Client, error) {
	if g == nil {
		if opt.Follow == "" {
			return nil, errors.New("authteam: nil graph (only a following client may start without one)")
		}
		var err error
		if g, err = NewGraphBuilder(0, 0).Build(); err != nil {
			return nil, err
		}
	}
	store, err := live.Open(g, live.Config{
		JournalPath:      opt.Journal,
		CompactThreshold: opt.CompactThreshold,
		CommitBatch:      opt.CommitBatch,
		Metrics:          opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if opt.CompactInterval > 0 && opt.Journal == "" {
		store.Close()
		return nil, errors.New("authteam: CompactInterval requires Journal (nothing to fold without a journal)")
	}
	c := &Client{store: store, opt: opt}
	if _, err := c.state(); err != nil {
		store.Close()
		return nil, err
	}
	if opt.CompactInterval > 0 {
		c.compactor, err = store.StartCompactor(live.CompactorConfig{
			Interval:   opt.CompactInterval,
			MinRecords: uint64(max(opt.CompactThreshold, 0)),
			MaxBytes:   opt.CompactBytes,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	if opt.Follow != "" {
		// Both directions claim the store's term: tails so a superseded
		// source fences us instead of feeding a stale lineage, forwards
		// so a partitioned old leader self-demotes on first contact.
		c.leader.Store(repl.NewLeader(opt.Follow, nil).WithTerm(store.Term))
		c.follower = live.StartFollower(store, repl.NewHTTPSource(opt.Follow, nil).WithTerm(store.Term), live.FollowerConfig{
			PollTimeout: opt.FollowPoll,
		})
	}
	return c, nil
}

// forward runs one leader RPC with failover: when the current target
// rejects the mutation as fenced/demoted or is unreachable and a peer
// list is configured, the client re-resolves the leader (highest term
// claiming the role wins) and retries exactly once. A successful retry
// repoints the whole client at the new leader: later mutations forward
// straight to it, and the replication tail is restarted against it too
// (refollow) — leaving the follower on the dead leader would freeze
// local reads and fail every read-your-writes wait with
// ErrReplicationLag forever.
func (c *Client) forward(do func(l *repl.Leader) (uint64, error)) (uint64, error) {
	epoch, err := do(c.leader.Load())
	if err == nil || len(c.opt.Peers) == 0 || !failoverWorthy(err) {
		return epoch, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	url, _, rerr := repl.ResolveLeader(ctx, nil, c.opt.Peers)
	if rerr != nil {
		return 0, fmt.Errorf("authteam: forward failed (%v) and leader re-resolution failed: %w", err, rerr)
	}
	nl := repl.NewLeader(url, nil).WithTerm(c.store.Term)
	epoch, err = do(nl)
	if err == nil {
		c.leader.Store(nl)
		c.refollow(url)
	}
	return epoch, err
}

// refollow restarts the replication tail against the leader a
// successful failover resolved. The old loop is stopped (it may
// already have stopped itself: its first contact with the demoted old
// leader fences the local store) and a fresh one started on the new
// source. If the store was fenced in the meantime, the new loop's
// bootstrap resyncs it wholesale — AdoptBase of the new lineage's
// base, which discards the divergent suffix and clears the fence — so
// the client fully rejoins the cluster instead of serving frozen state.
func (c *Client) refollow(url string) {
	c.followMu.Lock()
	defer c.followMu.Unlock()
	if c.followClosed || c.follower == nil {
		return
	}
	c.follower.Stop()
	c.follower = live.StartFollower(c.store, repl.NewHTTPSource(url, nil).WithTerm(c.store.Term), live.FollowerConfig{
		PollTimeout: c.opt.FollowPoll,
	})
}

// failoverWorthy reports whether a forward failure can plausibly be
// cured by talking to a different node: a fence (the target is not the
// leader on the current term) or a transport-level failure (target
// dead, or a redirect loop between confused nodes — net/http surfaces
// both as *url.Error). Application-level rejections (validation, 404s)
// fail the same way everywhere and are returned as-is.
func failoverWorthy(err error) bool {
	if errors.Is(err, live.ErrFenced) {
		return true
	}
	var uerr *url.Error
	return errors.As(err, &uerr)
}

// state returns a derived state at least as new as the epoch current
// when the query arrived, refreshing it if mutations have advanced the
// store since the last query. One refresher works at a time (outside
// the lock); concurrent queries needing the new epoch wait on its
// latch rather than duplicating the fit/rebuild.
func (c *Client) state() (*clientState, error) {
	want := c.store.Epoch()
	c.mu.Lock()
	var old *clientState
	for {
		// A state at least as new as the query's admission epoch is a
		// valid consistent view (read-your-writes holds; a refresher
		// may legitimately have moved past `want`) — if it belongs to
		// the store's current lineage. A base adoption (a follower's
		// bootstrap, or a failover resync rewinding a fenced store)
		// replaces the state at an epoch that may equal or trail the
		// derived state's, which must then be rebuilt.
		if c.st != nil && c.st.snap.Epoch() >= want && c.st.snap.Adoptions() == c.store.Snapshot().Adoptions() {
			st := c.st
			c.mu.Unlock()
			return st, nil
		}
		if c.refresh == nil {
			old = c.st
			break
		}
		latch := c.refresh
		c.mu.Unlock()
		<-latch
		c.mu.Lock()
	}
	latch := make(chan struct{})
	c.refresh = latch
	c.mu.Unlock()

	st, err := c.derive(old)

	c.mu.Lock()
	if err == nil {
		c.st = st
	}
	c.refresh = nil
	c.mu.Unlock()
	close(latch)
	return st, err
}

// derive computes the full serving state for the store's current
// epoch, carrying old's indexes forward incrementally when possible.
// The state reads through the epoch's overlay view; nothing is
// materialized unless an index must be rebuilt from scratch.
func (c *Client) derive(old *clientState) (*clientState, error) {
	snap := c.store.Snapshot()
	g := snap.View()
	p, err := transform.Fit(g, c.opt.Gamma, c.opt.Lambda, transform.Options{Normalize: !c.opt.NoNormalize})
	if err != nil {
		return nil, err
	}
	st := &clientState{snap: snap, g: g, params: p}
	if c.opt.BuildIndex {
		st.rawIdx = c.refreshIndex(old, snap, nil, nil, func(o *clientState) *oracle.PLLOracle { return o.rawIdx })
		var oldWeight live.WeightFunc
		if old != nil {
			// The previous state's fit is the weight function the
			// resident G' index was built over — decremental repair
			// needs it to recognize entries created under the old
			// authorities.
			oldWeight = old.params.EdgeWeight()
		}
		st.gIdx = c.refreshIndex(old, snap, p.EdgeWeight(), oldWeight, func(o *clientState) *oracle.PLLOracle { return o.gIdx })
	}
	return st, nil
}

// refreshIndex carries one index to snap — incrementally from the
// previous state when the mutation delta is repairable and in budget
// (insertions, removals, re-weights and authority updates all are, as
// long as the normalization bounds hold still), from scratch
// otherwise.
func (c *Client) refreshIndex(old *clientState, snap *live.Snapshot,
	weight, oldWeight live.WeightFunc, pick func(*clientState) *oracle.PLLOracle) *oracle.PLLOracle {
	if old != nil {
		if prev := pick(old); prev != nil {
			if ix, _, ok := live.MaintainIndex(prev.Index(), old.snap, snap, weight, oldWeight, clientRepairBudget); ok {
				return oracle.NewPLL(ix)
			}
		}
	}
	g, err := snap.Graph()
	if err != nil {
		return nil
	}
	return oracle.BuildPLLParallel(g, oracle.WeightFunc(weight), runtime.NumCPU())
}

// Graph returns the expert network at the current epoch, materializing
// it if this epoch was not materialized before (queries do not need
// this — they read the epoch's view — so the cost is paid only by
// callers that want an actual *Graph, e.g. to persist it).
func (c *Client) Graph() *Graph {
	st, err := c.state()
	if err != nil {
		return nil
	}
	g, err := st.snap.Graph()
	if err != nil {
		return nil
	}
	return g
}

// View returns the read-only graph view at the current epoch without
// materializing anything.
func (c *Client) View() GraphView {
	st, err := c.state()
	if err != nil {
		return nil
	}
	return st.g
}

// CompactJournal folds the write-ahead journal into a persisted base
// graph (Journal+".base") so the next New with the same journal path
// replays only mutations applied after the fold. It fails on clients
// opened without a journal.
func (c *Client) CompactJournal() error {
	_, err := c.store.Compact()
	return err
}

// Epoch returns the number of mutations applied since the client was
// created (epochs are absolute: they survive compaction and restarts).
func (c *Client) Epoch() uint64 { return c.store.Epoch() }

// Compactions reports how many journal folds the client's store has
// performed (at creation, on demand via CompactJournal, or by the
// background compactor).
func (c *Client) Compactions() uint64 { return c.store.Compactions() }

// LogLen reports the resident mutation-log length: mutations applied
// since the last fold re-based the in-memory store (or since creation
// when no fold happened yet). Under a background compactor it stays
// bounded by churn since the last fold.
func (c *Client) LogLen() int { return c.store.LogLen() }

// Close stops the replication follower and background compactor (if
// any) and releases the mutation journal. Queries keep working;
// further mutations fail with ErrClosed. The follower stops first —
// its apply loop writes through the store being shut down.
func (c *Client) Close() error {
	c.followMu.Lock()
	c.followClosed = true
	f := c.follower
	c.followMu.Unlock()
	if f != nil {
		f.Stop()
	}
	if c.compactor != nil {
		c.compactor.Stop()
	}
	return c.store.Close()
}

// WaitEpoch blocks until the client's store has reached at least the
// given epoch (true), or ctx expires (reports whether the epoch was
// reached anyway). On a following client this is the read-your-writes
// primitive: wait for the epoch a leader acknowledged, then query.
func (c *Client) WaitEpoch(ctx context.Context, epoch uint64) bool {
	return c.store.WaitEpoch(ctx, epoch)
}

// FollowerStats reports the replication apply loop (the current one,
// after a failover restarted it); ok is false on a standalone
// (non-following) client.
func (c *Client) FollowerStats() (live.FollowerStats, bool) {
	c.followMu.Lock()
	f := c.follower
	c.followMu.Unlock()
	if f == nil {
		return live.FollowerStats{}, false
	}
	return f.Stats(), true
}

// awaitEpoch is the read-your-writes tail of a forwarded mutation:
// the leader committed at epoch, now wait (bounded) for the local
// replica to catch up so the caller's next query observes the write.
func (c *Client) awaitEpoch(epoch uint64) error {
	wait := c.opt.FollowWait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	if c.store.WaitEpoch(ctx, epoch) {
		return nil
	}
	return fmt.Errorf("%w: write committed at leader epoch %d, replica at %d",
		ErrReplicationLag, epoch, c.store.Epoch())
}

// AddExpert adds a new expert with the given authority and skills. The
// expert is visible to every subsequent query (read-your-writes). On a
// following client the mutation is forwarded to the leader and then
// waited for locally.
func (c *Client) AddExpert(name string, authority float64, skills ...string) (NodeID, error) {
	if c.leader.Load() != nil {
		var id NodeID
		epoch, err := c.forward(func(l *repl.Leader) (uint64, error) {
			i, e, err := l.AddNode(name, authority, skills)
			id = i
			return e, err
		})
		if err != nil {
			return 0, err
		}
		return id, c.awaitEpoch(epoch)
	}
	id, _, err := c.store.AddExpert(name, authority, skills)
	return id, err
}

// AddCollaboration adds an undirected collaboration edge between two
// experts with communication cost w.
func (c *Client) AddCollaboration(u, v NodeID, w float64) error {
	if c.leader.Load() != nil {
		epoch, err := c.forward(func(l *repl.Leader) (uint64, error) { return l.AddEdge(u, v, w) })
		if err != nil {
			return err
		}
		return c.awaitEpoch(epoch)
	}
	_, err := c.store.AddCollaboration(u, v, w)
	return err
}

// UpdateExpert updates an expert's authority (nil leaves it unchanged)
// and/or grants additional skills.
func (c *Client) UpdateExpert(id NodeID, authority *float64, addSkills ...string) error {
	if c.leader.Load() != nil {
		epoch, err := c.forward(func(l *repl.Leader) (uint64, error) { return l.UpdateNode(id, authority, addSkills) })
		if err != nil {
			return err
		}
		return c.awaitEpoch(epoch)
	}
	_, err := c.store.UpdateExpert(id, authority, addSkills)
	return err
}

// RemoveCollaboration removes the collaboration edge between two
// experts. Subsequent queries never route through it (read-your-writes
// holds, as for every mutation).
func (c *Client) RemoveCollaboration(u, v NodeID) error {
	if c.leader.Load() != nil {
		epoch, err := c.forward(func(l *repl.Leader) (uint64, error) { return l.RemoveEdge(u, v) })
		if err != nil {
			return err
		}
		return c.awaitEpoch(epoch)
	}
	_, err := c.store.RemoveCollaboration(u, v)
	return err
}

// RemoveExpert tombstones an expert: its collaborations are dropped,
// its skills cleared, and every further mutation referencing it fails
// with live.ErrRemovedNode. The NodeID is never reused.
func (c *Client) RemoveExpert(id NodeID) error {
	if c.leader.Load() != nil {
		epoch, err := c.forward(func(l *repl.Leader) (uint64, error) { return l.RemoveNode(id) })
		if err != nil {
			return err
		}
		return c.awaitEpoch(epoch)
	}
	_, err := c.store.RemoveExpert(id)
	return err
}

// UpdateCollaboration replaces the communication cost of an existing
// collaboration edge.
func (c *Client) UpdateCollaboration(u, v NodeID, w float64) error {
	if c.leader.Load() != nil {
		epoch, err := c.forward(func(l *repl.Leader) (uint64, error) { return l.UpdateEdge(u, v, w) })
		if err != nil {
			return err
		}
		return c.awaitEpoch(epoch)
	}
	_, err := c.store.UpdateCollaboration(u, v, w)
	return err
}

// Gamma returns the connector-authority tradeoff parameter.
func (c *Client) Gamma() float64 { return c.opt.Gamma }

// Lambda returns the skill-holder-authority tradeoff parameter.
func (c *Client) Lambda() float64 { return c.opt.Lambda }

// ResolveSkills maps skill names to IDs, failing on unknown names.
func (c *Client) ResolveSkills(names []string) ([]SkillID, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	return resolveSkills(st, names)
}

func resolveSkills(st *clientState, names []string) ([]SkillID, error) {
	out := make([]SkillID, len(names))
	for i, n := range names {
		id, ok := st.g.SkillID(n)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSkill, n)
		}
		out[i] = id
	}
	return out, nil
}

func (st *clientState) discoverer(m Method) *core.Discoverer {
	var opts []core.Option
	idx := st.gIdx
	if m == CC {
		idx = st.rawIdx
	}
	if idx != nil {
		opts = append(opts, core.WithOracle(idx))
	}
	return core.NewDiscoverer(st.params, m, opts...)
}

// BestTeam returns the best team covering the named skills under the
// given ranking strategy.
func (c *Client) BestTeam(m Method, skills []string) (*Team, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	return st.discoverer(m).BestTeam(project)
}

// TopK returns up to k distinct teams in increasing cost order.
func (c *Client) TopK(m Method, skills []string, k int) ([]*Team, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	return st.discoverer(m).TopK(project, k)
}

// TopKParallel is TopK with the root scan of Algorithm 1 sharded over
// the given number of goroutines; results are identical to TopK. It
// shines on paper-scale (40K-node) graphs with the index built.
func (c *Client) TopKParallel(m Method, skills []string, k, workers int) ([]*Team, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	var dist oracle.Oracle
	idx := st.gIdx
	if m == CC {
		idx = st.rawIdx
	}
	if idx != nil {
		dist = idx
	}
	return core.TopKParallel(st.params, m, project, k, workers, dist)
}

// Random runs the paper's Random baseline: trials random teams, best
// SA-CA-CC kept. A nil rng uses a fixed seed.
func (c *Client) Random(skills []string, trials int, rng *rand.Rand) (*Team, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if st.gIdx != nil {
		return core.RandomFast(st.params, project, trials, rng, st.gIdx)
	}
	return core.Random(st.params, project, trials, rng)
}

// ExactOptions re-exports the exhaustive-search knobs.
type ExactOptions = core.ExactOptions

// Exact returns an (SA-CA-CC)-optimal team, or ErrBudgetExceeded when
// the assignment space exceeds the budget (the paper's Exact baseline
// does not terminate beyond 6 skills).
func (c *Client) Exact(skills []string, opt ExactOptions) (*Team, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	if opt.Oracle == nil && st.gIdx != nil {
		opt.Oracle = st.gIdx
	}
	return core.Exact(st.params, project, opt)
}

// RarestFirst runs the classic Lappas et al. (KDD'09) heuristic — the
// origin of the communication-cost line of work — as an additional
// authority-blind baseline: anchor at a holder of the rarest skill,
// attach the nearest holder of every other skill.
func (c *Client) RarestFirst(skills []string) (*Team, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	var dist oracle.Oracle
	if st.rawIdx != nil {
		dist = st.rawIdx
	}
	return core.RarestFirst(st.params, project, dist)
}

// Pareto approximates the Pareto front over the raw (CC, CA, SA)
// objectives — the paper's §5 future-work direction.
func (c *Client) Pareto(skills []string, opt core.ParetoOptions) ([]ParetoTeam, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	project, err := resolveSkills(st, skills)
	if err != nil {
		return nil, err
	}
	return core.ParetoFront(st.g, project, opt)
}

// ParetoOptions re-exports the sweep configuration.
type ParetoOptions = core.ParetoOptions

// Replacement is a scored substitute recommendation for a departing
// team member.
type Replacement = core.Replacement

// ReplaceMember recommends up to k substitutes for a departing member
// of t (best SA-CA-CC first), keeping the rest of the team intact —
// the operational scenario of the replacement literature the paper
// cites as related work.
func (c *Client) ReplaceMember(t *Team, leaver NodeID, k int) ([]Replacement, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	return core.ReplaceMember(st.params, t, leaver, k)
}

// Evaluate computes every objective of the paper for t under the
// client's parameterization and normalization at the current epoch.
func (c *Client) Evaluate(t *Team) Score {
	st, err := c.state()
	if err != nil {
		return Score{}
	}
	return team.Evaluate(t, st.params)
}

// Profile summarizes t's authority and publication statistics.
func (c *Client) Profile(t *Team) Profile {
	st, err := c.state()
	if err != nil {
		return Profile{}
	}
	return team.ProfileOf(t, st.g)
}

// --- Corpus helpers -----------------------------------------------------

// SynthConfig re-exports the synthetic corpus configuration.
type SynthConfig = dblp.SynthConfig

// SynthesizeCorpus generates a DBLP-like corpus (deterministic per
// seed); see internal/dblp for the generative model.
func SynthesizeCorpus(cfg SynthConfig) *Corpus { return dblp.Synthesize(cfg) }

// CorpusGraphOptions re-exports the corpus→graph derivation knobs.
type CorpusGraphOptions = dblp.GraphOptions

// BuildCorpusGraph derives the expert network from a corpus: h-index
// authorities, Jaccard-distance coauthor edges, and title-term skills
// for junior researchers, per §4 of the paper.
func BuildCorpusGraph(c *Corpus, opt CorpusGraphOptions) (*Graph, error) {
	g, _, err := dblp.BuildGraph(c, opt)
	return g, err
}

// SaveGraph and LoadGraph persist expert networks.
var (
	SaveGraph = expertgraph.SaveFile
	LoadGraph = expertgraph.LoadFile
)
