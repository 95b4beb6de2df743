// Package core implements the paper's primary contribution: the greedy
// team discovery search (Algorithm 1) over the expert network and its
// transformed variant G', covering all three ranking strategies of the
// paper (CC, CA-CC and SA-CA-CC, §3.2), the Random and Exact baselines
// of §4, and the Pareto-front extension sketched in §5.
//
// Algorithm 1 considers every expert as a potential root, greedily
// attaches the cheapest holder of each required skill (by shortest-path
// distance, answered by a pluggable oracle), and keeps the root whose
// team has the lowest total cost. The CA-CC and SA-CA-CC strategies run
// the same search over the transformed graph G' with the skill-holder
// cost adjustments of §3.2.2–3.2.3.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"authteam/internal/expertgraph"
	"authteam/internal/oracle"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// Method selects the ranking strategy.
type Method int

const (
	// CC minimizes communication cost only (Problem 1, prior work).
	CC Method = iota
	// CACC minimizes γ·CA + (1−γ)·CC (Problem 3; γ=1 gives Problem 2).
	CACC
	// SACACC minimizes λ·SA + (1−λ)·CA-CC (Problem 5).
	SACACC
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case CC:
		return "CC"
	case CACC:
		return "CA-CC"
	case SACACC:
		return "SA-CA-CC"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Sentinel errors returned by the discovery entry points.
var (
	ErrNoExpert     = errors.New("core: no expert holds a required skill")
	ErrNoTeam       = errors.New("core: no root can reach every required skill")
	ErrEmptyProject = errors.New("core: project requires no skills")
	ErrBadK         = errors.New("core: k must be positive")
)

// Discoverer runs Algorithm 1 for one method over one parameterization.
// It is not safe for concurrent use (the distance oracle and the path
// reconstruction workspace carry scratch state); create one per
// goroutine.
type Discoverer struct {
	params   *transform.Params
	method   Method
	g        expertgraph.GraphView
	dist     oracle.Oracle
	ws       *expertgraph.DijkstraWorkspace
	weight   oracle.WeightFunc // search weights; nil = raw (CC)
	roots    []expertgraph.NodeID
	eligible func(expertgraph.NodeID) bool // nil = everyone
}

// Option configures a Discoverer.
type Option func(*Discoverer)

// WithOracle injects a prebuilt distance oracle. The oracle must answer
// distances over the method's search weights (raw edge weights for CC,
// the G' weights of params.EdgeWeight() for CA-CC and SA-CA-CC); this
// is how one PLL index is shared between CA-CC and SA-CA-CC runs with
// the same γ.
func WithOracle(o oracle.Oracle) Option {
	return func(d *Discoverer) { d.dist = o }
}

// WithPLL builds a 2-hop cover index over the search weights at
// construction time instead of using per-root Dijkstra.
func WithPLL() Option {
	return func(d *Discoverer) { d.dist = oracle.BuildPLL(d.g, d.weight) }
}

// WithRoots restricts the candidate roots of line 3 of Algorithm 1.
// Useful for parallel sharding and for experiments.
func WithRoots(roots []expertgraph.NodeID) Option {
	return func(d *Discoverer) { d.roots = roots }
}

// WithEligibility restricts team membership: experts for which
// eligible returns false are used neither as skill holders nor as
// roots. This models availability windows, personnel budgets (the
// "affordable teams" extension of the authors' SDM'13 work) or
// exclusion lists. Connectors on shortest paths are not filtered —
// excluding them would require constrained path search; callers
// needing hard exclusion should drop the nodes via Subgraph instead.
func WithEligibility(eligible func(expertgraph.NodeID) bool) Option {
	return func(d *Discoverer) { d.eligible = eligible }
}

// NewDiscoverer creates a Discoverer for the given parameterization and
// method. By default it uses a per-root Dijkstra oracle (exact, no
// preprocessing) and considers every node as a root.
func NewDiscoverer(p *transform.Params, m Method, opts ...Option) *Discoverer {
	d := &Discoverer{
		params: p,
		method: m,
		g:      p.Graph(),
	}
	if m != CC {
		d.weight = p.EdgeWeight()
	}
	for _, opt := range opts {
		opt(d)
	}
	if d.dist == nil {
		d.dist = oracle.NewDijkstra(d.g, d.weight)
	}
	if d.ws == nil {
		d.ws = expertgraph.NewDijkstraWorkspace(d.g)
	}
	return d
}

// Method returns the ranking strategy this discoverer optimizes.
func (d *Discoverer) Method() Method { return d.method }

// Params returns the parameterization the discoverer searches under.
func (d *Discoverer) Params() *transform.Params { return d.params }

// holderCost converts an oracle distance for candidate holder v into
// the greedy cost of lines 9–10 of Algorithm 1, per §3.2.1–3.2.3.
func (d *Discoverer) holderCost(dist float64, v expertgraph.NodeID) float64 {
	switch d.method {
	case CC:
		return dist
	case CACC:
		return d.params.CACCCost(dist, v)
	default:
		return d.params.SACACCCost(dist, v)
	}
}

// rootHolderCost is the cost of assigning a skill to the root itself
// ("if root contains skill si, then DIST is set to zero and skill si is
// assigned to root"). For SA-CA-CC the root still pays its skill-holder
// authority term λ·a'(root); the connector terms vanish with DIST = 0.
func (d *Discoverer) rootHolderCost(root expertgraph.NodeID) float64 {
	if d.method == SACACC {
		return d.params.Lambda * d.params.NormInv(root)
	}
	return 0
}

// candidate is one root's greedy solution: the surrogate cost and the
// chosen holder per project skill.
type candidate struct {
	root   expertgraph.NodeID
	cost   float64
	assign []expertgraph.NodeID
}

// rankedTeam is a reconstructed team with the greedy cost its root
// scored in the scan. TopK ranks by (cost, root), so carrying the cost
// lets TopKParallel merge shard results in exactly the sequential
// order without re-scoring them.
type rankedTeam struct {
	team *team.Team
	cost float64
}

// byCostRoot orders Algorithm 1's candidates: greedy cost ascending,
// ties broken by root ID so the order is deterministic.
func byCostRoot(ca float64, ra expertgraph.NodeID, cb float64, rb expertgraph.NodeID) int {
	return cmp.Or(cmp.Compare(ca, cb), cmp.Compare(ra, rb))
}

// BestTeam returns the lowest-cost team for the project, or ErrNoTeam
// if no root reaches a holder of every skill.
func (d *Discoverer) BestTeam(project []expertgraph.SkillID) (*team.Team, error) {
	teams, err := d.TopK(project, 1)
	if err != nil {
		return nil, err
	}
	return teams[0], nil
}

// TopK returns up to k distinct teams in increasing order of greedy
// cost. Distinct means a different node set or skill assignment; many
// roots converge to the same tree, and the paper's top-k list is only
// useful if its entries differ. Fewer than k teams are returned only
// when the candidate space is exhausted.
func (d *Discoverer) TopK(project []expertgraph.SkillID, k int) ([]*team.Team, error) {
	ranked, err := d.topK(project, k)
	if err != nil {
		return nil, err
	}
	teams := make([]*team.Team, len(ranked))
	for i, r := range ranked {
		teams[i] = r.team
	}
	return teams, nil
}

// topK is TopK keeping each team's greedy cost.
func (d *Discoverer) topK(project []expertgraph.SkillID, k int) ([]rankedTeam, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(project) == 0 {
		return nil, ErrEmptyProject
	}
	experts := make([][]expertgraph.NodeID, len(project))
	for i, s := range project {
		experts[i] = d.g.ExpertsWithSkill(s)
		if d.eligible != nil {
			experts[i] = filterNodes(experts[i], d.eligible)
		}
		if len(experts[i]) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrNoExpert, d.g.SkillName(s))
		}
	}

	roots := d.roots
	if roots == nil {
		roots = allNodes(d.g)
	}
	if d.eligible != nil {
		roots = filterNodes(roots, d.eligible)
		if len(roots) == 0 {
			return nil, ErrNoTeam
		}
	}

	// One probe per scan: a PLL oracle's probe decodes each holder's
	// label once for all roots.
	probe := oracle.NewProbe(d.dist)
	var cands []candidate
	for _, root := range roots {
		if c, ok := d.evalRoot(probe, root, project, experts); ok {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil, ErrNoTeam
	}
	slices.SortFunc(cands, func(a, b candidate) int { return byCostRoot(a.cost, a.root, b.cost, b.root) })

	teams := make([]rankedTeam, 0, k)
	seen := make(map[string]bool)
	for _, c := range cands {
		t, err := d.reconstruct(c, project)
		if err != nil {
			// A candidate whose paths cannot be realized indicates an
			// oracle/graph mismatch; surface it rather than skipping.
			return nil, err
		}
		sig := signature(t)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		teams = append(teams, rankedTeam{team: t, cost: c.cost})
		if len(teams) == k {
			break
		}
	}
	return teams, nil
}

// evalRoot runs lines 8–13 of Algorithm 1 for one root: pick the
// cheapest holder of each skill and accumulate the surrogate cost. The
// root is loaded into the probe once; every holder distance is then
// asked from it.
func (d *Discoverer) evalRoot(probe oracle.Probe, root expertgraph.NodeID,
	project []expertgraph.SkillID, experts [][]expertgraph.NodeID) (candidate, bool) {

	probe.Source(root)
	c := candidate{root: root, assign: make([]expertgraph.NodeID, len(project))}
	for i, s := range project {
		if d.g.HasSkill(root, s) {
			c.assign[i] = root
			c.cost += d.rootHolderCost(root)
			continue
		}
		best := expertgraph.NodeID(-1)
		bestCost := expertgraph.Infinity()
		for _, v := range experts[i] {
			dist := probe.To(v)
			if math.IsInf(dist, 1) {
				continue
			}
			if cost := d.holderCost(dist, v); cost < bestCost {
				bestCost, best = cost, v
			}
		}
		if best < 0 {
			return candidate{}, false // line 11: no reachable holder
		}
		c.assign[i] = best
		c.cost += bestCost
	}
	return c, true
}

// reconstruct materializes a candidate into an actual team subgraph by
// rebuilding root→holder shortest paths under the search weights.
func (d *Discoverer) reconstruct(c candidate, project []expertgraph.SkillID) (*team.Team, error) {
	var sssp *expertgraph.SSSP
	if d.weight == nil {
		sssp = d.ws.Run(c.root)
	} else {
		sssp = d.ws.RunWeighted(c.root, d.weight)
	}
	assignment := make(map[expertgraph.SkillID]expertgraph.NodeID, len(project))
	paths := make(map[expertgraph.SkillID][]expertgraph.NodeID, len(project))
	for i, s := range project {
		holder := c.assign[i]
		assignment[s] = holder
		path := sssp.PathTo(holder)
		if path == nil {
			return nil, fmt.Errorf("core: holder %d unreachable from root %d during reconstruction",
				holder, c.root)
		}
		paths[s] = path
	}
	return team.FromPaths(d.g, c.root, assignment, paths)
}

// signature canonically encodes a team's node set and assignment for
// deduplication across roots.
func signature(t *team.Team) string {
	buf := make([]byte, 0, 8*len(t.Nodes)+8*len(t.Assignment))
	for _, u := range t.Nodes {
		buf = appendInt(buf, int32(u))
	}
	buf = append(buf, '|')
	skills := make([]int, 0, len(t.Assignment))
	for s := range t.Assignment {
		skills = append(skills, int(s))
	}
	sort.Ints(skills)
	for _, s := range skills {
		buf = appendInt(buf, int32(s))
		buf = appendInt(buf, int32(t.Assignment[expertgraph.SkillID(s)]))
	}
	return string(buf)
}

func appendInt(buf []byte, v int32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func allNodes(g expertgraph.GraphView) []expertgraph.NodeID {
	nodes := make([]expertgraph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = expertgraph.NodeID(i)
	}
	return nodes
}

func filterNodes(in []expertgraph.NodeID, keep func(expertgraph.NodeID) bool) []expertgraph.NodeID {
	out := make([]expertgraph.NodeID, 0, len(in))
	for _, u := range in {
		if keep(u) {
			out = append(out, u)
		}
	}
	return out
}
