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
	"sync/atomic"
	"time"

	"authteam/internal/core"
	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/node"
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
// WritePrometheus). Pass one in Options.Metrics to have the client
// register its store, index and replication instruments on it.
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
	// BuildIndex serves distances from 2-hop cover indexes (the
	// paper's configuration), exactly as `teamdisc serve` does: the
	// raw-weight and the γ covers are built at client creation (a
	// following client builds each on its first query instead), and
	// after live mutations a cover is carried forward by incremental
	// repair when the delta allows it (up to 512 mutations) and rebuilt
	// in the background otherwise. Queries never wait for a rebuild:
	// until it lands they run exact per-root Dijkstra, so answers stay
	// exact. Without BuildIndex every discovery call runs per-root
	// Dijkstra — fine for small graphs and tests.
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
	// compactor's record trigger (8192 records when 0).
	CompactThreshold int
	// CompactInterval starts a background compactor inside the client:
	// at this (jittered) cadence it folds the journal and re-bases the
	// in-memory store while queries and mutations keep flowing, so a
	// long-lived client's resident state stays O(churn since the last
	// fold). 0 disables it. Requires Journal.
	CompactInterval time.Duration
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
	// length), its index maintenance and, when following, its
	// replication instruments on the given registry, e.g. one the
	// embedding program already exposes at /metrics. Nil disables
	// instrumentation; the client works identically either way.
	Metrics *obs.Registry
}

// Client answers team discovery queries over one expert network and
// one (γ, λ) parameterization, and accepts live mutations (AddExpert,
// AddCollaboration, UpdateExpert) that take effect atomically between
// queries. It is safe for concurrent use: every query runs against one
// epoch snapshot. The store, its background loops, the parameter fit
// and the 2-hop covers are the same serving core `teamdisc serve` runs
// (internal/node).
type Client struct {
	node *node.Node
	opt  Options
	// leader forwards this client's mutations in replica mode (nil
	// unless Options.Follow is set). It sits behind an atomic pointer
	// because failover (Options.Peers) repoints it while mutators run.
	leader atomic.Pointer[repl.Leader]
}

// New creates a client over g. With Options.Follow set, g may be nil:
// the client starts empty and catches up from the leader's replication
// log in the background (queries work immediately, against whatever
// prefix has replicated).
func New(g *Graph, opt Options) (*Client, error) {
	if g == nil && opt.Follow == "" {
		return nil, errors.New("authteam: nil graph (only a following client may start without one)")
	}
	n, err := node.Open(node.Config{
		Graph:            g,
		JournalPath:      opt.Journal,
		CompactThreshold: opt.CompactThreshold,
		CompactInterval:  opt.CompactInterval,
		FollowURL:        opt.Follow,
		FollowPoll:       opt.FollowPoll,
		NoNormalize:      opt.NoNormalize,
		Metrics:          opt.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("authteam: %w", err)
	}
	c := &Client{node: n, opt: opt}
	snap := n.Store().Snapshot()
	p, err := n.Params(snap, opt.Gamma, opt.Lambda)
	if err != nil {
		n.Close()
		return nil, err
	}
	if opt.Follow != "" {
		// Forwards claim the store's term, so a partitioned old leader
		// self-demotes on first contact.
		c.leader.Store(repl.NewLeader(opt.Follow, nil).WithTerm(n.Store().Term))
	} else if opt.BuildIndex {
		// A follower builds its covers once replication has delivered a
		// graph, not over the empty bootstrap state.
		n.Index(snap, p, CC)
		n.Index(snap, p, SACACC)
	}
	return c, nil
}

// forward runs one leader RPC with failover: when the current target
// rejects the mutation as fenced/demoted or is unreachable and a peer
// list is configured, the client re-resolves the leader (highest term
// claiming the role wins) and retries exactly once. A successful retry
// repoints the whole client at the new leader: later mutations forward
// straight to it, and the replication tail is restarted against it too
// (Refollow) — leaving the follower on the dead leader would freeze
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
	nl := repl.NewLeader(url, nil).WithTerm(c.node.Store().Term)
	epoch, err = do(nl)
	if err == nil {
		c.leader.Store(nl)
		c.node.Refollow(url)
	}
	return epoch, err
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

// Graph returns the expert network at the current epoch, materializing
// it if this epoch was not materialized before (queries do not need
// this — they read the epoch's view — so the cost is paid only by
// callers that want an actual *Graph, e.g. to persist it).
func (c *Client) Graph() *Graph {
	g, err := c.node.Store().Snapshot().Graph()
	if err != nil {
		return nil
	}
	return g
}

// View returns the read-only graph view at the current epoch without
// materializing anything.
func (c *Client) View() GraphView { return c.node.Store().Snapshot().View() }

// CompactJournal folds the write-ahead journal into a persisted base
// graph (Journal+".base") so the next New with the same journal path
// replays only mutations applied after the fold. It fails on clients
// opened without a journal.
func (c *Client) CompactJournal() error {
	_, err := c.node.Store().Compact()
	return err
}

// Epoch returns the number of mutations applied since the client was
// created (epochs are absolute: they survive compaction and restarts).
func (c *Client) Epoch() uint64 { return c.node.Store().Epoch() }

// Compactions reports how many journal folds the client's store has
// performed (at creation, on demand via CompactJournal, or by the
// background compactor).
func (c *Client) Compactions() uint64 { return c.node.Store().Compactions() }

// LogLen reports the resident mutation-log length: mutations applied
// since the last fold re-based the in-memory store (or since creation
// when no fold happened yet). Under a background compactor it stays
// bounded by churn since the last fold.
func (c *Client) LogLen() int { return c.node.Store().LogLen() }

// Close stops the replication follower and background compactor (if
// any), waits for background index rebuilds and releases the mutation
// journal. Queries keep working; further mutations fail with ErrClosed.
func (c *Client) Close() error { return c.node.Close() }

// WaitEpoch blocks until the client's store has reached at least the
// given epoch (true), or ctx expires (reports whether the epoch was
// reached anyway). On a following client this is the read-your-writes
// primitive: wait for the epoch a leader acknowledged, then query.
func (c *Client) WaitEpoch(ctx context.Context, epoch uint64) bool {
	return c.node.Store().WaitEpoch(ctx, epoch)
}

// FollowerStats reports the replication apply loop (the current one,
// after a failover restarted it); ok is false on a standalone
// (non-following) client.
func (c *Client) FollowerStats() (live.FollowerStats, bool) {
	return c.node.FollowerStats()
}

// mutate runs one mutation: applied to the local store on a standalone
// client; on a following client forwarded to the leader (with
// failover) and then waited for locally, so read-your-writes holds.
func (c *Client) mutate(local func(*live.Store) (uint64, error), remote func(*repl.Leader) (uint64, error)) error {
	if c.leader.Load() == nil {
		_, err := local(c.node.Store())
		return err
	}
	epoch, err := c.forward(remote)
	if err != nil {
		return err
	}
	// The leader committed at epoch; wait (bounded) for the local
	// replica to catch up so the caller's next query observes the write.
	wait := c.opt.FollowWait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	if c.node.Store().WaitEpoch(ctx, epoch) {
		return nil
	}
	return fmt.Errorf("%w: write committed at leader epoch %d, replica at %d",
		ErrReplicationLag, epoch, c.node.Store().Epoch())
}

// AddExpert adds a new expert with the given authority and skills. The
// expert is visible to every subsequent query (read-your-writes). On a
// following client the mutation is forwarded to the leader and then
// waited for locally.
func (c *Client) AddExpert(name string, authority float64, skills ...string) (NodeID, error) {
	var id NodeID
	err := c.mutate(func(s *live.Store) (epoch uint64, err error) {
		id, epoch, err = s.AddExpert(name, authority, skills)
		return epoch, err
	}, func(l *repl.Leader) (epoch uint64, err error) {
		id, epoch, err = l.AddNode(name, authority, skills)
		return epoch, err
	})
	return id, err
}

// AddCollaboration adds an undirected collaboration edge between two
// experts with communication cost w.
func (c *Client) AddCollaboration(u, v NodeID, w float64) error {
	return c.mutate(
		func(s *live.Store) (uint64, error) { return s.AddCollaboration(u, v, w) },
		func(l *repl.Leader) (uint64, error) { return l.AddEdge(u, v, w) })
}

// UpdateExpert updates an expert's authority (nil leaves it unchanged)
// and/or grants additional skills.
func (c *Client) UpdateExpert(id NodeID, authority *float64, addSkills ...string) error {
	return c.mutate(
		func(s *live.Store) (uint64, error) { return s.UpdateExpert(id, authority, addSkills) },
		func(l *repl.Leader) (uint64, error) { return l.UpdateNode(id, authority, addSkills) })
}

// RemoveCollaboration removes the collaboration edge between two
// experts. Subsequent queries never route through it (read-your-writes
// holds, as for every mutation).
func (c *Client) RemoveCollaboration(u, v NodeID) error {
	return c.mutate(
		func(s *live.Store) (uint64, error) { return s.RemoveCollaboration(u, v) },
		func(l *repl.Leader) (uint64, error) { return l.RemoveEdge(u, v) })
}

// RemoveExpert tombstones an expert: its collaborations are dropped,
// its skills cleared, and every further mutation referencing it fails
// with live.ErrRemovedNode. The NodeID is never reused.
func (c *Client) RemoveExpert(id NodeID) error {
	return c.mutate(
		func(s *live.Store) (uint64, error) { return s.RemoveExpert(id) },
		func(l *repl.Leader) (uint64, error) { return l.RemoveNode(id) })
}

// UpdateCollaboration replaces the communication cost of an existing
// collaboration edge.
func (c *Client) UpdateCollaboration(u, v NodeID, w float64) error {
	return c.mutate(
		func(s *live.Store) (uint64, error) { return s.UpdateCollaboration(u, v, w) },
		func(l *repl.Leader) (uint64, error) { return l.UpdateEdge(u, v, w) })
}

// Gamma returns the connector-authority tradeoff parameter.
func (c *Client) Gamma() float64 { return c.opt.Gamma }

// Lambda returns the skill-holder-authority tradeoff parameter.
func (c *Client) Lambda() float64 { return c.opt.Lambda }

// state is one query's consistent serving state: the current epoch's
// snapshot and its fit, whose Graph is the snapshot's view.
type state struct {
	snap *live.Snapshot
	p    *transform.Params
}

func (c *Client) state() (state, error) {
	snap := c.node.Store().Snapshot()
	p, err := c.node.Params(snap, c.opt.Gamma, c.opt.Lambda)
	return state{snap: snap, p: p}, err
}

// index returns the cover answering method m's distances at st, or nil
// — per-root Dijkstra — without Options.BuildIndex or while the node
// rebuilds the cover in the background.
func (c *Client) index(st state, m Method) oracle.Oracle {
	if !c.opt.BuildIndex {
		return nil
	}
	return c.node.Index(st.snap, st.p, m)
}

// query resolves the serving state and the named skills.
func (c *Client) query(skills []string) (state, []SkillID, error) {
	st, err := c.state()
	if err != nil {
		return st, nil, err
	}
	project, err := resolveSkills(st.p.Graph(), skills)
	return st, project, err
}

// ResolveSkills maps skill names to IDs, failing on unknown names.
func (c *Client) ResolveSkills(names []string) ([]SkillID, error) {
	_, project, err := c.query(names)
	return project, err
}

func resolveSkills(g GraphView, names []string) ([]SkillID, error) {
	out := make([]SkillID, len(names))
	for i, n := range names {
		id, ok := g.SkillID(n)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSkill, n)
		}
		out[i] = id
	}
	return out, nil
}

// BestTeam returns the best team covering the named skills under the
// given ranking strategy.
func (c *Client) BestTeam(m Method, skills []string) (*Team, error) {
	teams, err := c.TopK(m, skills, 1)
	if err != nil {
		return nil, err
	}
	return teams[0], nil
}

// TopK returns up to k distinct teams in increasing cost order.
func (c *Client) TopK(m Method, skills []string, k int) ([]*Team, error) {
	st, project, err := c.query(skills)
	if err != nil {
		return nil, err
	}
	var opts []core.Option
	if idx := c.index(st, m); idx != nil {
		opts = append(opts, core.WithOracle(idx))
	}
	return core.NewDiscoverer(st.p, m, opts...).TopK(project, k)
}

// TopKParallel is TopK with the root scan of Algorithm 1 sharded over
// the given number of goroutines; results are identical to TopK. It
// shines on paper-scale (40K-node) graphs with the index built.
func (c *Client) TopKParallel(m Method, skills []string, k, workers int) ([]*Team, error) {
	st, project, err := c.query(skills)
	if err != nil {
		return nil, err
	}
	return core.TopKParallel(st.p, m, project, k, workers, c.index(st, m))
}

// Random runs the paper's Random baseline: trials random teams, best
// SA-CA-CC kept. A nil rng uses a fixed seed. With Options.BuildIndex
// the trials are scored through distances (RandomFast) — the cover's,
// or per-root Dijkstra's while it is rebuilt — so the result does not
// depend on when a rebuild lands.
func (c *Client) Random(skills []string, trials int, rng *rand.Rand) (*Team, error) {
	st, project, err := c.query(skills)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if !c.opt.BuildIndex {
		return core.Random(st.p, project, trials, rng)
	}
	dist := c.index(st, SACACC)
	if dist == nil {
		dist = oracle.NewDijkstra(st.p.Graph(), st.p.EdgeWeight())
	}
	return core.RandomFast(st.p, project, trials, rng, dist)
}

// ExactOptions re-exports the exhaustive-search knobs.
type ExactOptions = core.ExactOptions

// Exact returns an (SA-CA-CC)-optimal team, or ErrBudgetExceeded when
// the assignment space exceeds the budget (the paper's Exact baseline
// does not terminate beyond 6 skills).
func (c *Client) Exact(skills []string, opt ExactOptions) (*Team, error) {
	st, project, err := c.query(skills)
	if err != nil {
		return nil, err
	}
	if opt.Oracle == nil {
		opt.Oracle = c.index(st, SACACC)
	}
	return core.Exact(st.p, project, opt)
}

// RarestFirst runs the classic Lappas et al. (KDD'09) heuristic — the
// origin of the communication-cost line of work — as an additional
// authority-blind baseline: anchor at a holder of the rarest skill,
// attach the nearest holder of every other skill.
func (c *Client) RarestFirst(skills []string) (*Team, error) {
	st, project, err := c.query(skills)
	if err != nil {
		return nil, err
	}
	return core.RarestFirst(st.p, project, c.index(st, CC))
}

// Pareto approximates the Pareto front over the raw (CC, CA, SA)
// objectives — the paper's §5 future-work direction.
func (c *Client) Pareto(skills []string, opt core.ParetoOptions) ([]ParetoTeam, error) {
	st, project, err := c.query(skills)
	if err != nil {
		return nil, err
	}
	return core.ParetoFront(st.p.Graph(), project, opt)
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
	return core.ReplaceMember(st.p, t, leaver, k)
}

// Evaluate computes every objective of the paper for t under the
// client's parameterization and normalization at the current epoch.
func (c *Client) Evaluate(t *Team) Score {
	st, err := c.state()
	if err != nil {
		return Score{}
	}
	return team.Evaluate(t, st.p)
}

// Profile summarizes t's authority and publication statistics.
func (c *Client) Profile(t *Team) Profile {
	return team.ProfileOf(t, c.View())
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
