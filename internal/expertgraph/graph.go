// Package expertgraph implements the expert network substrate of the
// paper: an immutable, undirected, edge-weighted graph whose nodes are
// experts carrying an authority value (e.g. h-index) and a set of
// skills (§2 of the paper).
//
// The graph is stored in compressed sparse row (CSR) form for cache
// friendly traversal, with an inverted skill index (skill → experts,
// the paper's C(s)) attached. Graphs are built through a Builder and
// immutable afterwards, which makes them safe for concurrent readers
// without locking.
package expertgraph

import (
	"fmt"
	"math"
)

// NodeID identifies an expert in a Graph. IDs are dense, assigned in
// insertion order starting at 0.
type NodeID int32

// SkillID identifies a skill in the graph's skill universe. IDs are
// dense, assigned in first-use order starting at 0.
type SkillID int32

// infinity is the distance reported between disconnected experts. It
// is unexported — math.Inf(1) cannot be a Go constant, and an exported
// mutable var would let importers corrupt every distance comparison
// that uses it as a sentinel. Importers read it through Infinity() and
// detect disconnection with math.IsInf(d, 1).
var infinity = math.Inf(1)

// Infinity returns the distance reported between disconnected experts
// (+Inf). It is an accessor rather than an exported var so the
// sentinel stays read-only.
func Infinity() float64 { return infinity }

// Node is the per-expert record. Authority is the raw application
// authority (the paper uses h-index); it is floored at 1 at build time
// so the inverse authority a'(c) = 1/a(c) of §2 is always defined.
type Node struct {
	Name      string
	Authority float64
	Pubs      int // number of publications, used by the evaluation
}

// Graph is an immutable expert network.
type Graph struct {
	nodes []Node
	inv   []float64 // inverse authorities a'(c) = 1/a(c)

	// CSR adjacency. Edge i of node u lives at adjOff[u] ≤ i < adjOff[u+1].
	adjOff []int32
	adjTo  []NodeID
	adjW   []float64

	// Skill universe and per-node skills, also CSR-packed.
	skillNames []string
	skillIDs   map[string]SkillID
	nodeSkOff  []int32
	nodeSk     []SkillID

	// Inverted index C(s): experts holding each skill, CSR-packed,
	// sorted by NodeID.
	skillOff []int32
	skillOf  []NodeID

	numEdges int // undirected edge count

	// removed marks tombstoned experts (nil when none). A removed node
	// keeps its NodeID slot — ID spaces stay dense so every consumer's
	// arrays keep lining up — but it has no edges, holds no skills, is
	// excluded from the normalization bounds and fails ValidNode.
	removed    []bool
	numRemoved int

	// Normalization bounds. These are *covering* bounds: every stored
	// edge weight lies in [minW, maxW] and every live inverse authority
	// in [minInv, maxInv], but the interval may be wider than the tight
	// extremes when the graph was materialized from a live overlay whose
	// bounds had already outlived a retired extreme (see WidenBounds).
	// Keeping bounds covering instead of tight is what lets a deletion
	// of the current extreme route through decremental index repair
	// rather than invalidating every transformed weight at once.
	minW, maxW     float64 // edge-weight bounds (0,0 when no edges)
	minInv, maxInv float64 // inverse-authority bounds (0,0 when empty)
}

// NumNodes returns the number of experts.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumSkills returns the size of the skill universe.
func (g *Graph) NumSkills() int { return len(g.skillNames) }

// Node returns the record of expert u.
func (g *Graph) Node(u NodeID) Node { return g.nodes[u] }

// Name returns the display name of expert u.
func (g *Graph) Name(u NodeID) string { return g.nodes[u].Name }

// Authority returns a(u), the raw authority of expert u (≥ 1).
func (g *Graph) Authority(u NodeID) float64 { return g.nodes[u].Authority }

// InvAuthority returns a'(u) = 1/a(u) as defined in §2 of the paper.
func (g *Graph) InvAuthority(u NodeID) float64 { return g.inv[u] }

// Pubs returns the publication count of expert u.
func (g *Graph) Pubs(u NodeID) int { return g.nodes[u].Pubs }

// Degree returns the number of neighbours of expert u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.adjOff[u+1] - g.adjOff[u])
}

// Neighbors calls fn for every neighbour v of u with the edge weight
// w(u,v). Iteration stops early if fn returns false.
func (g *Graph) Neighbors(u NodeID, fn func(v NodeID, w float64) bool) {
	for i := g.adjOff[u]; i < g.adjOff[u+1]; i++ {
		if !fn(g.adjTo[i], g.adjW[i]) {
			return
		}
	}
}

// EdgeWeight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	for i := g.adjOff[u]; i < g.adjOff[u+1]; i++ {
		if g.adjTo[i] == v {
			return g.adjW[i], true
		}
	}
	return 0, false
}

// SkillID resolves a skill name to its ID.
func (g *Graph) SkillID(name string) (SkillID, bool) {
	id, ok := g.skillIDs[name]
	return id, ok
}

// SkillName returns the name of skill s.
func (g *Graph) SkillName(s SkillID) string { return g.skillNames[s] }

// Skills returns the skills S(u) held by expert u. The returned slice
// is shared with the graph and must not be modified.
func (g *Graph) Skills(u NodeID) []SkillID {
	return g.nodeSk[g.nodeSkOff[u]:g.nodeSkOff[u+1]]
}

// HasSkill reports whether expert u holds skill s.
func (g *Graph) HasSkill(u NodeID, s SkillID) bool {
	for _, sk := range g.Skills(u) {
		if sk == s {
			return true
		}
	}
	return false
}

// ExpertsWithSkill returns C(s), the experts holding skill s, sorted by
// NodeID. The returned slice is shared with the graph and must not be
// modified.
func (g *Graph) ExpertsWithSkill(s SkillID) []NodeID {
	return g.skillOf[g.skillOff[s]:g.skillOff[s+1]]
}

// EdgeWeightBounds returns the covering (min, max) edge weight bounds,
// or (0, 0) if the graph has no edges. The bounds contain every stored
// weight but may be wider than the tight extremes; see WidenBounds.
func (g *Graph) EdgeWeightBounds() (lo, hi float64) { return g.minW, g.maxW }

// InvAuthorityBounds returns the covering (min, max) inverse-authority
// bounds over live experts, or (0, 0) if the graph has no live nodes.
func (g *Graph) InvAuthorityBounds() (lo, hi float64) { return g.minInv, g.maxInv }

// WidenBounds expands the graph's normalization bounds to cover the
// given intervals. The live layer calls it after materializing an overlay whose covering
// bounds have outlived retired extremes, so the packed graph answers
// the exact same bounds as the overlay it replaces — a graph and its
// overlay disagreeing on bounds would make every transformed edge
// weight (and with it every 2-hop cover) silently inconsistent. A
// population the graph does not have (no edges, or no live nodes)
// adopts the incoming interval verbatim.
func (g *Graph) WidenBounds(minW, maxW, minInv, maxInv float64) {
	if g.numEdges == 0 {
		g.minW, g.maxW = minW, maxW
	} else {
		if minW < g.minW {
			g.minW = minW
		}
		if maxW > g.maxW {
			g.maxW = maxW
		}
	}
	if len(g.nodes) == g.numRemoved {
		g.minInv, g.maxInv = minInv, maxInv
	} else {
		if minInv < g.minInv {
			g.minInv = minInv
		}
		if maxInv > g.maxInv {
			g.maxInv = maxInv
		}
	}
}

// ValidNode reports whether u is a (live) node of this graph; removed
// experts fail even though their ID slot remains.
func (g *Graph) ValidNode(u NodeID) bool {
	return u >= 0 && int(u) < len(g.nodes) && !g.Removed(u)
}

// Removed reports whether expert u has been tombstoned. Removed nodes
// keep their NodeID (ID spaces stay dense) but have no edges, hold no
// skills and are excluded from the normalization bounds.
func (g *Graph) Removed(u NodeID) bool {
	return g.removed != nil && g.removed[u]
}

// NumRemoved returns the number of tombstoned experts; NumNodes −
// NumRemoved is the live population.
func (g *Graph) NumRemoved() int { return g.numRemoved }

// String summarizes the graph for logs and error messages.
func (g *Graph) String() string {
	if g.numRemoved > 0 {
		return fmt.Sprintf("expertgraph{nodes: %d (%d removed), edges: %d, skills: %d}",
			g.NumNodes(), g.numRemoved, g.NumEdges(), g.NumSkills())
	}
	return fmt.Sprintf("expertgraph{nodes: %d, edges: %d, skills: %d}",
		g.NumNodes(), g.NumEdges(), g.NumSkills())
}
