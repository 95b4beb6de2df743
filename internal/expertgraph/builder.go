package expertgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Common build errors. Errors returned by Build wrap one of these, so
// callers can match with errors.Is.
var (
	ErrSelfLoop       = errors.New("expertgraph: self loop")
	ErrDuplicateEdge  = errors.New("expertgraph: duplicate edge")
	ErrNegativeWeight = errors.New("expertgraph: negative edge weight")
	ErrUnknownNode    = errors.New("expertgraph: unknown node")
	ErrUnknownEdge    = errors.New("expertgraph: unknown edge")
	ErrRemovedNode    = errors.New("expertgraph: removed node")
)

type pendingEdge struct {
	u, v NodeID
	w    float64
}

// edgeKey packs an undirected edge into one map key.
func edgeKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Builder assembles a Graph. It is not safe for concurrent use. The
// zero value is ready to use.
type Builder struct {
	nodes  []Node
	skills [][]SkillID

	skillNames []string
	skillIDs   map[string]SkillID

	edges   []pendingEdge
	edgeErr error

	// Removal/re-weight state, allocated lazily so the bulk-load path
	// (no removals) pays nothing. edgeIdx maps an edge key to its slot
	// in edges; pdeg tracks pending degrees so RemoveNode can insist on
	// an isolated node in O(1).
	removed    []bool
	numRemoved int
	edgeIdx    map[uint64]int
	pdeg       []int32
}

// NewBuilder returns a Builder with capacity hints for nodes and edges.
func NewBuilder(nodeHint, edgeHint int) *Builder {
	return &Builder{
		nodes:    make([]Node, 0, nodeHint),
		skills:   make([][]SkillID, 0, nodeHint),
		edges:    make([]pendingEdge, 0, edgeHint),
		skillIDs: make(map[string]SkillID),
	}
}

// Skill interns a skill name and returns its ID. Calling it for an
// already-known name returns the existing ID.
func (b *Builder) Skill(name string) SkillID {
	if b.skillIDs == nil {
		b.skillIDs = make(map[string]SkillID)
	}
	if id, ok := b.skillIDs[name]; ok {
		return id
	}
	id := SkillID(len(b.skillNames))
	b.skillNames = append(b.skillNames, name)
	b.skillIDs[name] = id
	return id
}

// AddNode adds an expert and returns its NodeID. Authority values
// below 1 are floored to 1 so that a'(c) = 1/a(c) stays defined and
// bounded (the paper uses h-index, which can be 0 for juniors).
func (b *Builder) AddNode(name string, authority float64, skills ...string) NodeID {
	if authority < 1 {
		authority = 1
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{Name: name, Authority: authority})
	ids := make([]SkillID, 0, len(skills))
	for _, s := range skills {
		ids = appendSkill(ids, b.Skill(s))
	}
	b.skills = append(b.skills, ids)
	if b.removed != nil {
		b.removed = append(b.removed, false)
	}
	if b.pdeg != nil {
		b.pdeg = append(b.pdeg, 0)
	}
	return id
}

// SetPubs records the publication count of expert u.
func (b *Builder) SetPubs(u NodeID, pubs int) {
	b.nodes[u].Pubs = pubs
}

// SetAuthority replaces the authority of an already-added expert,
// applying the same ≥ 1 floor as AddNode. It is how live authority
// updates are replayed when a mutated graph is materialized.
func (b *Builder) SetAuthority(u NodeID, authority float64) {
	if authority < 1 {
		authority = 1
	}
	b.nodes[u].Authority = authority
}

// AddSkillTo grants skill s to an existing expert.
func (b *Builder) AddSkillTo(u NodeID, skill string) {
	b.skills[u] = appendSkill(b.skills[u], b.Skill(skill))
}

func appendSkill(ids []SkillID, id SkillID) []SkillID {
	for _, have := range ids {
		if have == id {
			return ids
		}
	}
	return append(ids, id)
}

// AddEdge records an undirected edge between u and v with weight w.
// Validation errors (self loop, negative weight, unknown endpoint,
// duplicate edge) are sticky and reported by Build; this keeps bulk
// loading loops free of per-call error handling.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	if b.edgeErr != nil {
		return
	}
	switch {
	case u == v:
		b.edgeErr = fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	case w < 0:
		b.edgeErr = fmt.Errorf("%w: edge (%d,%d) weight %v", ErrNegativeWeight, u, v, w)
	case int(u) >= len(b.nodes) || u < 0:
		b.edgeErr = fmt.Errorf("%w: %d", ErrUnknownNode, u)
	case int(v) >= len(b.nodes) || v < 0:
		b.edgeErr = fmt.Errorf("%w: %d", ErrUnknownNode, v)
	case b.isRemoved(u) || b.isRemoved(v):
		b.edgeErr = fmt.Errorf("%w: edge (%d,%d)", ErrRemovedNode, u, v)
	default:
		if u > v {
			u, v = v, u
		}
		if b.edgeIdx != nil {
			b.edgeIdx[edgeKey(u, v)] = len(b.edges)
		}
		if b.pdeg != nil {
			b.pdeg[u]++
			b.pdeg[v]++
		}
		b.edges = append(b.edges, pendingEdge{u: u, v: v, w: w})
	}
}

func (b *Builder) isRemoved(u NodeID) bool {
	return b.removed != nil && b.removed[u]
}

// ensureEdgeIndex lazily builds the edge-key index and pending-degree
// table the removal/re-weight operations need; the one O(E) pass is
// paid only by builders that actually mutate edges.
func (b *Builder) ensureEdgeIndex() {
	if b.edgeIdx != nil {
		return
	}
	b.edgeIdx = make(map[uint64]int, len(b.edges))
	b.pdeg = make([]int32, len(b.nodes))
	for i, e := range b.edges {
		b.edgeIdx[edgeKey(e.u, e.v)] = i
		b.pdeg[e.u]++
		b.pdeg[e.v]++
	}
}

// RemoveEdge drops the pending undirected edge (u, v). Removing an
// edge that was never added is a sticky error, like AddEdge's
// validation failures.
func (b *Builder) RemoveEdge(u, v NodeID) {
	if b.edgeErr != nil {
		return
	}
	b.ensureEdgeIndex()
	key := edgeKey(u, v)
	i, ok := b.edgeIdx[key]
	if !ok {
		b.edgeErr = fmt.Errorf("%w: (%d,%d)", ErrUnknownEdge, u, v)
		return
	}
	e := b.edges[i]
	b.pdeg[e.u]--
	b.pdeg[e.v]--
	delete(b.edgeIdx, key)
	last := len(b.edges) - 1
	if i != last {
		moved := b.edges[last]
		b.edges[i] = moved
		b.edgeIdx[edgeKey(moved.u, moved.v)] = i
	}
	b.edges = b.edges[:last]
}

// UpdateEdge replaces the weight of the pending edge (u, v). Unknown
// edges and negative weights are sticky errors.
func (b *Builder) UpdateEdge(u, v NodeID, w float64) {
	if b.edgeErr != nil {
		return
	}
	if w < 0 {
		b.edgeErr = fmt.Errorf("%w: edge (%d,%d) weight %v", ErrNegativeWeight, u, v, w)
		return
	}
	b.ensureEdgeIndex()
	i, ok := b.edgeIdx[edgeKey(u, v)]
	if !ok {
		b.edgeErr = fmt.Errorf("%w: (%d,%d)", ErrUnknownEdge, u, v)
		return
	}
	b.edges[i].w = w
}

// RemoveNode tombstones expert u: its NodeID slot remains (ID spaces
// stay dense) but the node loses its skills, is excluded from the
// authority bounds and fails ValidNode in the built graph. The node
// must be isolated — callers remove its incident edges first (the live
// mutation log records them with each remove_node, so replay is
// self-contained). Violations are sticky errors.
func (b *Builder) RemoveNode(u NodeID) {
	if b.edgeErr != nil {
		return
	}
	if int(u) >= len(b.nodes) || u < 0 {
		b.edgeErr = fmt.Errorf("%w: %d", ErrUnknownNode, u)
		return
	}
	if b.isRemoved(u) {
		b.edgeErr = fmt.Errorf("%w: %d", ErrRemovedNode, u)
		return
	}
	b.ensureEdgeIndex()
	if b.pdeg[u] != 0 {
		b.edgeErr = fmt.Errorf("expertgraph: removing node %d with %d incident edges", u, b.pdeg[u])
		return
	}
	if b.removed == nil {
		b.removed = make([]bool, len(b.nodes))
	}
	b.removed[u] = true
	b.numRemoved++
	b.skills[u] = nil
}

// NumNodes returns the number of experts added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build validates the accumulated nodes and edges and freezes them into
// an immutable Graph. The Builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.edgeErr != nil {
		return nil, b.edgeErr
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	for i := 1; i < len(b.edges); i++ {
		if b.edges[i] == b.edges[i-1] || (b.edges[i].u == b.edges[i-1].u && b.edges[i].v == b.edges[i-1].v) {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicateEdge, b.edges[i].u, b.edges[i].v)
		}
	}

	n := len(b.nodes)
	g := &Graph{
		nodes:      b.nodes,
		inv:        make([]float64, n),
		skillNames: b.skillNames,
		skillIDs:   b.skillIDs,
		numEdges:   len(b.edges),
		numRemoved: b.numRemoved,
	}
	if b.numRemoved > 0 {
		g.removed = b.removed
	}
	if g.skillIDs == nil {
		g.skillIDs = make(map[string]SkillID)
	}
	for i, nd := range g.nodes {
		g.inv[i] = 1 / nd.Authority
	}

	// Adjacency CSR: count degrees, then fill both directions.
	deg := make([]int32, n+1)
	for _, e := range b.edges {
		deg[e.u+1]++
		deg[e.v+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	g.adjOff = deg
	g.adjTo = make([]NodeID, 2*len(b.edges))
	g.adjW = make([]float64, 2*len(b.edges))
	cursor := make([]int32, n)
	for _, e := range b.edges {
		i := g.adjOff[e.u] + cursor[e.u]
		g.adjTo[i], g.adjW[i] = e.v, e.w
		cursor[e.u]++
		j := g.adjOff[e.v] + cursor[e.v]
		g.adjTo[j], g.adjW[j] = e.u, e.w
		cursor[e.v]++
	}

	// Node-skill CSR.
	g.nodeSkOff = make([]int32, n+1)
	total := 0
	for i, sk := range b.skills {
		total += len(sk)
		g.nodeSkOff[i+1] = int32(total)
	}
	g.nodeSk = make([]SkillID, 0, total)
	for _, sk := range b.skills {
		g.nodeSk = append(g.nodeSk, sk...)
	}

	// Inverted skill index C(s), sorted by NodeID (nodes are visited in
	// increasing order so append order is already sorted).
	ns := len(g.skillNames)
	counts := make([]int32, ns+1)
	for _, s := range g.nodeSk {
		counts[s+1]++
	}
	for i := 0; i < ns; i++ {
		counts[i+1] += counts[i]
	}
	g.skillOff = counts
	g.skillOf = make([]NodeID, total)
	fill := make([]int32, ns)
	for u := 0; u < n; u++ {
		for _, s := range g.Skills(NodeID(u)) {
			g.skillOf[g.skillOff[s]+fill[s]] = NodeID(u)
			fill[s]++
		}
	}

	// Weight and authority bounds for the normalizer (Def. 4 requires
	// normalizing node and edge scales before combining them).
	var w, inv minMax
	for _, e := range b.edges {
		w.add(e.w)
	}
	for i, a := range g.inv {
		if g.Removed(NodeID(i)) {
			continue // tombstones don't participate in normalization
		}
		inv.add(a)
	}
	g.minW, g.maxW = w.lo, w.hi
	g.minInv, g.maxInv = inv.lo, inv.hi
	return g, nil
}

// minMax folds values into their tight min and max (0, 0 when none).
type minMax struct {
	lo, hi float64
	any    bool
}

func (m *minMax) add(v float64) {
	if !m.any || v < m.lo {
		m.lo = v
	}
	if !m.any || v > m.hi {
		m.hi = v
	}
	m.any = true
}
