package live

import (
	"sort"

	"authteam/internal/expertgraph"
)

// OverlayView answers expertgraph.GraphView reads for one epoch as a
// patch layer over a parent view — the zero-materialization read path
// of the live store. The parent is one of two things:
//
//   - the snapshot's frozen base graph (newOverlay): the layer folds the
//     whole resident log and sits at depth 0;
//   - the previous epoch's OverlayView (extend): the layer folds one
//     committed batch and sits one deeper than its parent, so under a
//     sustained write stream the per-epoch build cost stays O(|batch|)
//     however long ago the last fold was.
//
// Building a layer costs O(|mutations folded|): the parent is shared,
// and only the nodes, edges and skills the mutations touch get patch
// entries. Reads on untouched nodes fall through to the parent; reads
// on patched nodes consult small merged slices computed once at
// construction. A read walks at most depth+1 layers, and the committer
// refolds from the base once a chain reaches maxChainDepth.
//
// Decremental mutations patch subtractively: removed or re-weighted
// parent edges are masked by key (re-weights re-appear as layer halves
// at the new weight), and tombstoned nodes answer like their
// materialized counterparts (no edges, no skills, ValidNode false,
// excluded from holder lists and normalization bounds).
//
// Normalization bounds are *covering*, not tight: they seed from the
// base graph's bounds and only ever expand as mutations fold in new
// values — retiring the current min/max edge weight or inverse
// authority leaves them where they are. A tight bound would have to
// shrink on such a retirement, and a bounds move re-scales every
// transformed edge weight of §3.2.2 at once, invalidating the whole
// 2-hop cover; under the covering contract the retirement is just an
// ordinary decremental delta the index repairs through. An extended
// layer continues its parent's fold, so every layer's bounds equal a
// one-pass fold of the resident log over the base.
//
// The view is semantically identical to the graph Snapshot.Graph()
// would materialize: same IDs (nodes, skills), same holder ordering
// (ExpertsWithSkill stays sorted by NodeID), same covering
// normalization bounds (materialization widens the packed graph to
// match). Only the Neighbors visit order differs (parent edges first,
// then the layer's), which GraphView leaves implementation-defined.
//
// OverlayView is immutable after construction and safe for concurrent
// readers; it reads its parent, which is immutable too.
type OverlayView struct {
	parent expertgraph.GraphView // the base graph, or the previous epoch's layer
	depth  int                   // 0 over the base graph, parent's depth + 1 over a layer
	pn     int                   // parent node count
	pnSk   int                   // parent skill count
	nodes  int
	edges  int

	// Nodes appended by the layer (IDs pn, pn+1, …).
	newNames  []string
	newAuth   []float64
	newInv    []float64
	newSkills [][]expertgraph.SkillID
	newAdj    [][]halfEdge

	// Patches on parent nodes. skillPatch holds the *full* merged skill
	// list (parent skills + grants, in grant order) so Skills stays a
	// single lookup; a tombstoned node's entry is an empty list.
	authPatch  map[expertgraph.NodeID]authOverride
	extraAdj   map[expertgraph.NodeID][]halfEdge
	skillPatch map[expertgraph.NodeID][]expertgraph.SkillID

	// Subtractive patches: parent edges masked out by key (removed, or
	// re-weighted and re-added as layer halves), the per-endpoint count
	// of masked parent edges (for O(1) Degree), and nodes tombstoned by
	// the layer.
	removedEdges map[uint64]struct{}
	removedDeg   map[expertgraph.NodeID]int
	removedNodes map[expertgraph.NodeID]struct{}

	// Skill universe extensions and patched inverted-index rows
	// (full merged holder lists, sorted by NodeID).
	newSkillNames []string
	newSkillIDs   map[string]expertgraph.SkillID
	holdersPatch  map[expertgraph.SkillID][]expertgraph.NodeID

	// Covering normalization bounds.
	wLo, wHi, invLo, invHi boundSide
}

// boundSide is one covering bound: the folded extreme, or no value yet
// (an empty population, whose bound adopts the first folded value).
type boundSide struct {
	val  float64
	have bool
}

// lower folds v toward a minimum bound.
func (b *boundSide) lower(v float64) {
	if !b.have || v < b.val {
		b.val, b.have = v, true
	}
}

// raise folds v toward a maximum bound.
func (b *boundSide) raise(v float64) {
	if !b.have || v > b.val {
		b.val, b.have = v, true
	}
}

// seedBounds seeds a (lo, hi) bound pair from a base graph's covering
// bounds. An absent population (have false: no edges, or no live
// experts) seeds empty sides that adopt the first folded value, even
// when the graph reports an interval: a compaction that retired the
// whole population leaves its old covering bounds behind (see
// WidenBounds), and materializing the next epoch drops them too.
func seedBounds(have bool, lo, hi float64) (loSide, hiSide boundSide) {
	if !have {
		return
	}
	return boundSide{val: lo, have: true}, boundSide{val: hi, have: true}
}

type halfEdge struct {
	to expertgraph.NodeID
	w  float64
}

type authOverride struct {
	auth, inv float64
}

// newOverlay folds the resident log over the base graph: a depth-0
// layer. muts must be the validated mutation log of the target epoch
// (the store guarantees referenced nodes exist and are live, edges are
// unique, authorities are floored at 1, remove_node records carry their
// incident edges).
func newOverlay(base *expertgraph.Graph, muts []Mutation, nodes, edges int) *OverlayView {
	o := &OverlayView{
		parent: base,
		pn:     base.NumNodes(),
		pnSk:   base.NumSkills(),
		nodes:  nodes,
		edges:  edges,
	}
	wlo, whi := base.EdgeWeightBounds()
	ilo, ihi := base.InvAuthorityBounds()
	o.wLo, o.wHi = seedBounds(base.NumEdges() > 0, wlo, whi)
	o.invLo, o.invHi = seedBounds(o.pn > base.NumRemoved(), ilo, ihi)
	o.fold(muts)
	return o
}

// extend folds one committed batch over o: the next epoch's layer, one
// deeper than o, its bounds continuing o's fold. batch carries the same
// guarantees as newOverlay's log; nodes and edges are the counts at the
// new epoch.
func (o *OverlayView) extend(batch []Mutation, nodes, edges int) *OverlayView {
	c := &OverlayView{
		parent: o,
		depth:  o.depth + 1,
		pn:     o.nodes,
		pnSk:   o.NumSkills(),
		nodes:  nodes,
		edges:  edges,
	}
	c.wLo, c.wHi, c.invLo, c.invHi = o.wLo, o.wHi, o.invLo, o.invHi
	c.fold(batch)
	return c
}

// fold patches muts into the layer and expands its seeded bounds.
func (o *OverlayView) fold(muts []Mutation) {
	// addedHolders accumulates per-skill holder additions and
	// droppedHolders per-skill removals (tombstoned nodes); both are
	// merged into holdersPatch at the end.
	var addedHolders map[expertgraph.SkillID][]expertgraph.NodeID
	var droppedHolders map[expertgraph.SkillID]map[expertgraph.NodeID]struct{}

	skillID := func(name string) expertgraph.SkillID {
		if id, ok := o.SkillID(name); ok {
			return id
		}
		id := expertgraph.SkillID(o.pnSk + len(o.newSkillNames))
		o.newSkillNames = append(o.newSkillNames, name)
		if o.newSkillIDs == nil {
			o.newSkillIDs = make(map[string]expertgraph.SkillID)
		}
		o.newSkillIDs[name] = id
		return id
	}
	addHolder := func(s expertgraph.SkillID, u expertgraph.NodeID) {
		if addedHolders == nil {
			addedHolders = make(map[expertgraph.SkillID][]expertgraph.NodeID)
		}
		addedHolders[s] = append(addedHolders[s], u)
	}
	dropHolder := func(s expertgraph.SkillID, u expertgraph.NodeID) {
		if droppedHolders == nil {
			droppedHolders = make(map[expertgraph.SkillID]map[expertgraph.NodeID]struct{})
		}
		set := droppedHolders[s]
		if set == nil {
			set = make(map[expertgraph.NodeID]struct{})
			droppedHolders[s] = set
		}
		set[u] = struct{}{}
	}
	// Bounds only ever expand (covering contract, see the type doc);
	// retirements leave them where they are.
	foldInv := func(inv float64) { o.invLo.lower(inv); o.invHi.raise(inv) }
	foldW := func(w float64) { o.wLo.lower(w); o.wHi.raise(w) }

	for _, m := range muts {
		switch m.Op {
		case OpAddNode:
			id := expertgraph.NodeID(o.pn + len(o.newNames))
			inv := 1 / m.Authority
			o.newNames = append(o.newNames, m.Name)
			o.newAuth = append(o.newAuth, m.Authority)
			o.newInv = append(o.newInv, inv)
			var sk []expertgraph.SkillID
			for _, name := range m.Skills {
				s := skillID(name)
				if containsSkill(sk, s) {
					continue
				}
				sk = append(sk, s)
				addHolder(s, id)
			}
			o.newSkills = append(o.newSkills, sk)
			o.newAdj = append(o.newAdj, nil)
			foldInv(inv)

		case OpAddEdge:
			o.addHalf(m.U, halfEdge{to: m.V, w: m.W})
			o.addHalf(m.V, halfEdge{to: m.U, w: m.W})
			foldW(m.W)

		case OpRemoveEdge:
			o.maskEdge(m.U, m.V)

		case OpUpdateEdge:
			if o.updateHalf(m.U, m.V, m.W) {
				o.updateHalf(m.V, m.U, m.W)
			} else {
				// An edge the parent serves: mask it by key and carry the
				// new weight as layer halves.
				o.maskEdge(m.U, m.V)
				o.addHalf(m.U, halfEdge{to: m.V, w: m.W})
				o.addHalf(m.V, halfEdge{to: m.U, w: m.W})
			}
			foldW(m.W)

		case OpRemoveNode:
			for _, e := range m.Edges {
				o.maskEdge(m.Node, e.V)
			}
			// The tombstone retires the node's skills from the inverted
			// index; its authority stays inside the covering bounds.
			for _, s := range o.Skills(m.Node) {
				dropHolder(s, m.Node)
			}
			if int(m.Node) >= o.pn {
				o.newSkills[int(m.Node)-o.pn] = nil
			} else {
				if o.skillPatch == nil {
					o.skillPatch = make(map[expertgraph.NodeID][]expertgraph.SkillID)
				}
				o.skillPatch[m.Node] = []expertgraph.SkillID{}
			}
			if o.removedNodes == nil {
				o.removedNodes = make(map[expertgraph.NodeID]struct{})
			}
			o.removedNodes[m.Node] = struct{}{}

		case OpUpdateNode:
			if m.SetAuthority != nil {
				auth := *m.SetAuthority
				inv := 1 / auth
				if int(m.Node) >= o.pn {
					i := int(m.Node) - o.pn
					o.newAuth[i], o.newInv[i] = auth, inv
				} else {
					if o.authPatch == nil {
						o.authPatch = make(map[expertgraph.NodeID]authOverride)
					}
					o.authPatch[m.Node] = authOverride{auth: auth, inv: inv}
				}
				foldInv(inv)
			}
			for _, name := range m.AddSkills {
				s := skillID(name)
				if containsSkill(o.Skills(m.Node), s) {
					continue
				}
				if int(m.Node) >= o.pn {
					i := int(m.Node) - o.pn
					o.newSkills[i] = append(o.newSkills[i], s)
				} else {
					if o.skillPatch == nil {
						o.skillPatch = make(map[expertgraph.NodeID][]expertgraph.SkillID)
					}
					if _, ok := o.skillPatch[m.Node]; !ok {
						o.skillPatch[m.Node] = append([]expertgraph.SkillID(nil), o.parent.Skills(m.Node)...)
					}
					o.skillPatch[m.Node] = append(o.skillPatch[m.Node], s)
				}
				addHolder(s, m.Node)
			}
		}
	}

	if len(addedHolders) > 0 || len(droppedHolders) > 0 {
		o.holdersPatch = make(map[expertgraph.SkillID][]expertgraph.NodeID, len(addedHolders)+len(droppedHolders))
		patchSkill := func(s expertgraph.SkillID) {
			if _, done := o.holdersPatch[s]; done {
				return
			}
			dropped := droppedHolders[s]
			var parentHolders []expertgraph.NodeID
			if int(s) < o.pnSk {
				parentHolders = o.parent.ExpertsWithSkill(s)
			}
			if len(dropped) > 0 {
				kept := make([]expertgraph.NodeID, 0, len(parentHolders))
				for _, u := range parentHolders {
					if _, gone := dropped[u]; !gone {
						kept = append(kept, u)
					}
				}
				parentHolders = kept
			}
			added := addedHolders[s]
			if len(dropped) > 0 && len(added) > 0 {
				kept := make([]expertgraph.NodeID, 0, len(added))
				for _, u := range added {
					if _, gone := dropped[u]; !gone {
						kept = append(kept, u)
					}
				}
				added = kept
			} else if len(added) > 0 {
				added = append([]expertgraph.NodeID(nil), added...)
			}
			sortNodeIDs(added)
			o.holdersPatch[s] = mergeSortedNodeIDs(parentHolders, added)
		}
		for s := range addedHolders {
			patchSkill(s)
		}
		for s := range droppedHolders {
			patchSkill(s)
		}
	}
}

func (o *OverlayView) addHalf(u expertgraph.NodeID, e halfEdge) {
	if int(u) >= o.pn {
		i := int(u) - o.pn
		o.newAdj[i] = append(o.newAdj[i], e)
		return
	}
	if o.extraAdj == nil {
		o.extraAdj = make(map[expertgraph.NodeID][]halfEdge)
	}
	o.extraAdj[u] = append(o.extraAdj[u], e)
}

// dropHalf deletes the layer's half-edge u→v if present, reporting
// whether it existed.
func (o *OverlayView) dropHalf(u, v expertgraph.NodeID) bool {
	var adj []halfEdge
	if int(u) >= o.pn {
		adj = o.newAdj[int(u)-o.pn]
	} else {
		adj = o.extraAdj[u]
	}
	for i, e := range adj {
		if e.to == v {
			last := len(adj) - 1
			adj[i] = adj[last]
			adj = adj[:last]
			if int(u) >= o.pn {
				o.newAdj[int(u)-o.pn] = adj
			} else if last == 0 {
				delete(o.extraAdj, u)
			} else {
				o.extraAdj[u] = adj
			}
			return true
		}
	}
	return false
}

// updateHalf re-weights the layer's half-edge u→v in place, reporting
// whether it existed.
func (o *OverlayView) updateHalf(u, v expertgraph.NodeID, w float64) bool {
	var adj []halfEdge
	if int(u) >= o.pn {
		adj = o.newAdj[int(u)-o.pn]
	} else {
		adj = o.extraAdj[u]
	}
	for i := range adj {
		if adj[i].to == v {
			adj[i].w = w
			return true
		}
	}
	return false
}

// maskEdge removes the effective edge (u, v) mid-fold: a half pair
// the layer added is dropped outright; an edge the parent serves
// (whatever layer it lives in there) is masked by key. An edge the
// layer re-weighted earlier lives as layer halves over an
// already-masked parent entry, so dropping the halves suffices.
func (o *OverlayView) maskEdge(u, v expertgraph.NodeID) {
	if o.dropHalf(u, v) {
		o.dropHalf(v, u)
		return
	}
	if o.removedEdges == nil {
		o.removedEdges = make(map[uint64]struct{})
		o.removedDeg = make(map[expertgraph.NodeID]int)
	}
	o.removedEdges[edgeKey(u, v)] = struct{}{}
	o.removedDeg[u]++
	o.removedDeg[v]++
}

func containsSkill(sk []expertgraph.SkillID, s expertgraph.SkillID) bool {
	for _, have := range sk {
		if have == s {
			return true
		}
	}
	return false
}

func sortNodeIDs(ids []expertgraph.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// mergeSortedNodeIDs merges two sorted, disjoint ID lists.
func mergeSortedNodeIDs(a, b []expertgraph.NodeID) []expertgraph.NodeID {
	out := make([]expertgraph.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// --- expertgraph.GraphView ----------------------------------------------

// NumNodes returns the expert count at this epoch (tombstoned experts
// keep their ID slot and stay counted, exactly as in a materialized
// graph).
func (o *OverlayView) NumNodes() int { return o.nodes }

// NumEdges returns the undirected edge count at this epoch.
func (o *OverlayView) NumEdges() int { return o.edges }

// NumSkills returns the size of the skill universe at this epoch.
func (o *OverlayView) NumSkills() int { return o.pnSk + len(o.newSkillNames) }

// Name returns the display name of expert u.
func (o *OverlayView) Name(u expertgraph.NodeID) string {
	if int(u) >= o.pn {
		return o.newNames[int(u)-o.pn]
	}
	return o.parent.Name(u)
}

// Authority returns a(u), the raw authority of expert u.
func (o *OverlayView) Authority(u expertgraph.NodeID) float64 {
	if int(u) >= o.pn {
		return o.newAuth[int(u)-o.pn]
	}
	if len(o.authPatch) != 0 {
		if ov, ok := o.authPatch[u]; ok {
			return ov.auth
		}
	}
	return o.parent.Authority(u)
}

// InvAuthority returns a'(u) = 1/a(u).
func (o *OverlayView) InvAuthority(u expertgraph.NodeID) float64 {
	if int(u) >= o.pn {
		return o.newInv[int(u)-o.pn]
	}
	if len(o.authPatch) != 0 {
		if ov, ok := o.authPatch[u]; ok {
			return ov.inv
		}
	}
	return o.parent.InvAuthority(u)
}

// Pubs returns the publication count of expert u (always 0 for experts
// added through the mutation API, which carries no publication field).
func (o *OverlayView) Pubs(u expertgraph.NodeID) int {
	if int(u) >= o.pn {
		return 0
	}
	return o.parent.Pubs(u)
}

// Degree returns the number of neighbours of expert u.
func (o *OverlayView) Degree(u expertgraph.NodeID) int {
	if _, gone := o.removedNodes[u]; gone {
		return 0
	}
	if int(u) >= o.pn {
		return len(o.newAdj[int(u)-o.pn])
	}
	d := o.parent.Degree(u)
	if len(o.removedDeg) != 0 {
		d -= o.removedDeg[u]
	}
	if len(o.extraAdj) != 0 {
		d += len(o.extraAdj[u])
	}
	return d
}

// Neighbors visits the parent's edges first (minus any the layer
// masked), then the layer's.
func (o *OverlayView) Neighbors(u expertgraph.NodeID, fn func(v expertgraph.NodeID, w float64) bool) {
	if _, gone := o.removedNodes[u]; gone {
		return
	}
	if int(u) >= o.pn {
		for _, e := range o.newAdj[int(u)-o.pn] {
			if !fn(e.to, e.w) {
				return
			}
		}
		return
	}
	extra := o.extraAdj[u]
	if len(o.removedEdges) == 0 {
		if len(extra) == 0 {
			o.parent.Neighbors(u, fn)
			return
		}
		stopped := false
		o.parent.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if !fn(v, w) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	} else {
		stopped := false
		o.parent.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if _, masked := o.removedEdges[edgeKey(u, v)]; masked {
				return true
			}
			if !fn(v, w) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
	for _, e := range extra {
		if !fn(e.to, e.w) {
			return
		}
	}
}

// EdgeWeight returns the weight of edge (u,v) and whether it exists.
// The layer's halves take precedence (they carry re-weights); masked
// parent entries are invisible.
func (o *OverlayView) EdgeWeight(u, v expertgraph.NodeID) (float64, bool) {
	var extra []halfEdge
	if int(u) >= o.pn {
		extra = o.newAdj[int(u)-o.pn]
	} else {
		extra = o.extraAdj[u]
	}
	for _, e := range extra {
		if e.to == v {
			return e.w, true
		}
	}
	if int(u) < o.pn && int(v) < o.pn {
		if len(o.removedEdges) != 0 {
			if _, masked := o.removedEdges[edgeKey(u, v)]; masked {
				return 0, false
			}
		}
		return o.parent.EdgeWeight(u, v)
	}
	return 0, false
}

// SkillID resolves a skill name to its ID.
func (o *OverlayView) SkillID(name string) (expertgraph.SkillID, bool) {
	if id, ok := o.parent.SkillID(name); ok {
		return id, true
	}
	id, ok := o.newSkillIDs[name]
	return id, ok
}

// SkillName returns the name of skill s.
func (o *OverlayView) SkillName(s expertgraph.SkillID) string {
	if int(s) >= o.pnSk {
		return o.newSkillNames[int(s)-o.pnSk]
	}
	return o.parent.SkillName(s)
}

// Skills returns the skills held by expert u. The returned slice is
// shared with the view and must not be modified.
func (o *OverlayView) Skills(u expertgraph.NodeID) []expertgraph.SkillID {
	if int(u) >= o.pn {
		return o.newSkills[int(u)-o.pn]
	}
	if len(o.skillPatch) != 0 {
		if sk, ok := o.skillPatch[u]; ok {
			return sk
		}
	}
	return o.parent.Skills(u)
}

// HasSkill reports whether expert u holds skill s.
func (o *OverlayView) HasSkill(u expertgraph.NodeID, s expertgraph.SkillID) bool {
	return containsSkill(o.Skills(u), s)
}

// ExpertsWithSkill returns C(s) sorted by NodeID. The returned slice
// is shared with the view and must not be modified.
func (o *OverlayView) ExpertsWithSkill(s expertgraph.SkillID) []expertgraph.NodeID {
	if len(o.holdersPatch) != 0 {
		if holders, ok := o.holdersPatch[s]; ok {
			return holders
		}
	}
	if int(s) < o.pnSk {
		return o.parent.ExpertsWithSkill(s)
	}
	return nil
}

// EdgeWeightBounds returns the covering (min, max) edge weight bounds
// at this epoch — identical to what materializing the graph (which
// widens to match, see Snapshot.Graph) would answer.
func (o *OverlayView) EdgeWeightBounds() (lo, hi float64) { return o.wLo.val, o.wHi.val }

// InvAuthorityBounds returns the covering (min, max) inverse-authority
// bounds at this epoch, over live (non-tombstoned) experts.
func (o *OverlayView) InvAuthorityBounds() (lo, hi float64) { return o.invLo.val, o.invHi.val }

// ValidNode reports whether u is a live node of this view (tombstoned
// experts fail, as on a materialized graph).
func (o *OverlayView) ValidNode(u expertgraph.NodeID) bool {
	if u < 0 || int(u) >= o.nodes {
		return false
	}
	if _, gone := o.removedNodes[u]; gone {
		return false
	}
	return int(u) >= o.pn || o.parent.ValidNode(u)
}

var _ expertgraph.GraphView = (*OverlayView)(nil)
