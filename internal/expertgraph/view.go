package expertgraph

// GraphView is the read-only surface through which every consumer of
// the expert network — the §3.2 transformation, the Dijkstra and 2-hop
// cover distance oracles, Algorithm 1 and its baselines, team
// evaluation and the serving layer — observes a graph. Algorithm 1
// only ever *reads* the network (neighbors, authorities, skill
// holders), so programming the whole query stack against this
// interface lets an implementation answer those reads any way it
// likes: *Graph serves them from its packed CSR arrays, and the live
// mutation overlay (internal/live) serves them straight from a frozen
// base CSR plus a per-node delta patch, without ever materializing the
// mutated graph.
//
// Implementations must be safe for concurrent readers and must keep
// every guarantee documented on the corresponding *Graph methods: ID
// spaces are dense, ExpertsWithSkill is sorted by NodeID, and slices
// returned by Skills/ExpertsWithSkill are shared and must not be
// modified by callers.
type GraphView interface {
	// NumNodes returns the number of experts.
	NumNodes() int
	// NumEdges returns the number of undirected edges.
	NumEdges() int
	// NumSkills returns the size of the skill universe.
	NumSkills() int

	// Name returns the display name of expert u.
	Name(u NodeID) string
	// Authority returns a(u), the raw authority of expert u (≥ 1).
	Authority(u NodeID) float64
	// InvAuthority returns a'(u) = 1/a(u) as defined in §2.
	InvAuthority(u NodeID) float64
	// Pubs returns the publication count of expert u.
	Pubs(u NodeID) int

	// Degree returns the number of neighbours of expert u.
	Degree(u NodeID) int
	// Neighbors calls fn for every neighbour v of u with the edge
	// weight w(u,v); iteration stops early if fn returns false. The
	// visit order is implementation-defined.
	Neighbors(u NodeID, fn func(v NodeID, w float64) bool)
	// EdgeWeight returns the weight of edge (u,v) and whether it exists.
	EdgeWeight(u, v NodeID) (float64, bool)

	// SkillID resolves a skill name to its ID.
	SkillID(name string) (SkillID, bool)
	// SkillName returns the name of skill s.
	SkillName(s SkillID) string
	// Skills returns the skills S(u) held by expert u.
	Skills(u NodeID) []SkillID
	// HasSkill reports whether expert u holds skill s.
	HasSkill(u NodeID, s SkillID) bool
	// ExpertsWithSkill returns C(s), the experts holding skill s,
	// sorted by NodeID.
	ExpertsWithSkill(s SkillID) []NodeID

	// EdgeWeightBounds returns covering (min, max) edge weight bounds:
	// every stored weight lies inside, but the interval may be wider
	// than the tight extremes once a live view has outlived a retired
	// extreme. A graph built without edges reports (0, 0); one with no
	// edges left can still report the interval of those it retired.
	EdgeWeightBounds() (lo, hi float64)
	// InvAuthorityBounds returns covering (min, max) inverse-authority
	// bounds over live experts (see EdgeWeightBounds for the covering
	// contract, and for a population that is gone or never was).
	InvAuthorityBounds() (lo, hi float64)

	// ValidNode reports whether u is a node of this graph.
	ValidNode(u NodeID) bool
}

var _ GraphView = (*Graph)(nil)
