package live

import (
	"authteam/internal/expertgraph"
	"authteam/internal/pll"
)

// Incremental 2-hop cover maintenance across epochs. Rebuilding a PLL
// index is the single most expensive computation in the system
// (O(n·m)-ish), so the serving layer asks MaintainIndex to carry an
// existing index forward through the mutation delta first, and only
// rebuilds when the delta is not repairable (or too large to be worth
// repairing — repaired labels are a superset of a fresh build's, so
// unbounded repair would let them drift).
//
// Group commit leaves this file's contract untouched: epochs remain
// per-op-absolute (a batch of N ops advances the epoch by N), so the
// MutationsSince windows repair consumes are the same op-granular
// deltas they were under the serial writer.

// WeightFunc mirrors oracle.WeightFunc / pll.Options.Weight: the
// search-weight transformation the index was built over (nil = stored
// weights).
type WeightFunc = func(u, v expertgraph.NodeID, w float64) float64

// RepairStats summarizes what one MaintainIndex call did, op by op, so
// the serving layer can report which repair kinds are absorbing the
// write stream.
type RepairStats struct {
	// Inserted counts edge insertions (and re-weights that made an edge
	// lighter) absorbed by resumed searches.
	Inserted int `json:"inserted"`
	// Removed counts remove_edge/remove_node mutations absorbed by
	// decremental invalidation + regional recomputation.
	Removed int `json:"removed"`
	// Reweighted counts update_edge mutations repaired (each routed to
	// the insert- or decrement-style path by weight direction).
	Reweighted int `json:"reweighted"`
	// Authority counts authority updates on weighted indexes repaired
	// as per-incident-edge re-weights.
	Authority int `json:"authority"`
	// Skipped counts mutations that provably change no distance on this
	// index (value-unchanged authority updates, skill grants, equal
	// search-weight re-weights) and were absorbed for free.
	Skipped int `json:"skipped"`
	// Visits is the total label-touch count of the repair — the work
	// measure to weigh against a full rebuild.
	Visits int `json:"visits"`
}

// Decremental reports whether the repair used decremental machinery
// (entry invalidation), the kind a fully dynamic cover adds over the
// insert-only dynamization.
func (rs RepairStats) Decremental() bool { return rs.Removed > 0 }

// Reweight reports whether the repair handled any weight-changing op
// (edge re-weights or authority updates).
func (rs RepairStats) Reweight() bool { return rs.Reweighted > 0 || rs.Authority > 0 }

// MaintainIndex returns an index valid at snapshot `to`, derived from
// ix — an index valid at snapshot `from` over weight function weight —
// by replaying the mutation delta: insertions and weight decreases
// with resumed pruned Dijkstras, removals and weight increases with
// decremental invalidation + regional recomputation, and authority
// updates on weighted indexes as per-incident-edge re-weights
// (pll.DynamicIndex throughout). It returns ok=false when the delta
// cannot be repaired incrementally and the caller must rebuild:
//
//   - the delta exceeds budget mutations (staleness budget; budget ≤ 0
//     means unbounded),
//   - a weighted index saw the graph's normalization bounds move (a new
//     or vanished extreme edge weight or authority rescales *every*
//     edge weight), or
//   - a weighted index saw a value-changing authority update but the
//     caller did not supply oldWeight — the weight function the index
//     was built over at `from` — which the decremental tight tests
//     need to recognize entries created under the old authorities.
//
// Value-unchanged authority updates (SetAuthority equal to the node's
// current authority) change no G′ weight and are skipped, never
// rejected. Raw-weight indexes (weight == nil) ignore authority and
// skill updates entirely and need no oldWeight.
//
// Both anchors are snapshots, never store state, so repair keeps
// working while — and after — the store re-bases in place: `from` may
// predate a fold (its mutations are then bridged through the retained
// previous-generation log) and only an anchor more than one fold
// generation old forces the rebuild fallback.
//
// A pair of snapshots that straddles a base adoption (AdoptBase) is
// never repaired: the adopted state did not grow out of `from` by the
// logged mutations, even where the epochs line up.
//
// For weighted indexes, weight must be derived from `to`'s fitted
// parameters and oldWeight (when supplied) from `from`'s. Both
// snapshots must come from the same store. ix is not modified.
func MaintainIndex(ix *pll.Index, from, to *Snapshot, weight, oldWeight WeightFunc, budget int) (*pll.Index, RepairStats, bool) {
	var rs RepairStats
	if from.Adoptions() != to.Adoptions() {
		// An adoption replaced the store's state between the anchors;
		// their epochs are not one history (see AdoptBase).
		return nil, rs, false
	}
	muts, ok := to.MutationsSince(from.Epoch())
	if !ok {
		return nil, rs, false
	}
	if len(muts) == 0 {
		return ix, rs, true
	}
	if budget > 0 && len(muts) > budget {
		return nil, rs, false
	}
	// Repairs read through the overlay views, never a materialized
	// graph: the resumed and regional searches touch only the
	// neighbourhood of the changed edges, so the overlay's per-read
	// overhead is noise and the zero-materialization discipline of the
	// serving path holds.
	fromG := from.View()
	toG := to.View()
	if weight != nil && !sameBounds(fromG, toG) {
		return nil, rs, false
	}
	if oldWeight != nil {
		// The old fit only knows the nodes of `from`. An edge touching a
		// delta-born node can only ever have been weighed by the new
		// fit, so route it there instead of indexing past the old fit's
		// normalization arrays.
		nFrom, prev := fromG.NumNodes(), oldWeight
		oldWeight = func(u, v expertgraph.NodeID, w float64) float64 {
			if int(u) >= nFrom || int(v) >= nFrom {
				return weight(u, v, w)
			}
			return prev(u, v, w)
		}
	}

	// curAuth tracks each touched node's authority through the delta so
	// value-unchanged updates are recognized mid-stream; nodes added in
	// the delta are seeded by their add_node record (fromG cannot
	// answer for them).
	var curAuth map[expertgraph.NodeID]float64
	authOf := func(u expertgraph.NodeID) float64 {
		if a, ok := curAuth[u]; ok {
			return a
		}
		return fromG.Authority(u)
	}
	setAuth := func(u expertgraph.NodeID, a float64) {
		if curAuth == nil {
			curAuth = make(map[expertgraph.NodeID]float64)
		}
		curAuth[u] = a
	}

	d := pll.NewDynamic(ix, weight)
	if oldWeight != nil {
		// Entries surviving from `from` were created under the old
		// weight function; decremental tight tests must recognize both.
		d.SetAltWeight(oldWeight)
	}
	// pg replays the delta state by state: every repair below runs
	// against the graph its mutation actually produced, which the
	// decremental detection (pre-op shortest paths queried from the
	// index, exact for the previous state by induction) requires.
	pg := newPatchGraph(fromG)
	// Grow the index to the final node count first — node additions
	// commute, a node is isolated until its edges arrive — and seed the
	// authority tracker for delta-born nodes.
	nextID := expertgraph.NodeID(fromG.NumNodes())
	for _, m := range muts {
		if m.Op == OpAddNode {
			d.AddNode()
			pg.addNode()
			setAuth(nextID, m.Authority)
			nextID++
		}
	}

	// oldWs returns the candidate search weights an edge may have had
	// when surviving entries were created: under the current weight
	// function and — when the function drifted — under the old one.
	oldWs := func(u, v expertgraph.NodeID, rawOld float64) []float64 {
		if weight == nil {
			return []float64{rawOld}
		}
		w1 := weight(u, v, rawOld)
		if oldWeight == nil {
			return []float64{w1}
		}
		if w2 := oldWeight(u, v, rawOld); w2 != w1 {
			return []float64{w1, w2}
		}
		return []float64{w1}
	}

	for _, m := range muts {
		switch m.Op {
		case OpAddEdge:
			pg.addEdge(m.U, m.V, m.W)
			d.InsertEdge(pg, m.U, m.V, m.W)
			rs.Inserted++

		case OpRemoveEdge:
			pg.removeEdge(m.U, m.V)
			d.RemoveEdge(pg, m.U, m.V, oldWs(m.U, m.V, m.W)...)
			rs.Removed++

		case OpRemoveNode:
			// Retire the node edge by edge, each removal repaired
			// against its own post-state.
			for _, e := range m.Edges {
				pg.removeEdge(m.Node, e.V)
				d.RemoveEdge(pg, m.Node, e.V, oldWs(m.Node, e.V, e.W)...)
			}
			rs.Removed++

		case OpUpdateEdge:
			var oldS, newS float64
			if weight != nil {
				oldS, newS = weight(m.U, m.V, m.OldW), weight(m.U, m.V, m.W)
			} else {
				oldS, newS = m.OldW, m.W
			}
			pg.updateEdge(m.U, m.V, m.W)
			switch {
			case newS < oldS:
				d.InsertEdge(pg, m.U, m.V, m.W)
				rs.Reweighted++
			case newS > oldS:
				d.IncreaseEdge(pg, m.U, m.V, oldWs(m.U, m.V, m.OldW)...)
				rs.Reweighted++
			default:
				// Equal search weight (a raw change the normalizer maps
				// to the same G' weight): no distance can move.
				rs.Skipped++
			}

		case OpUpdateNode:
			if m.SetAuthority == nil {
				continue // skill grants never touch edge weights
			}
			old, next := authOf(m.Node), *m.SetAuthority
			setAuth(m.Node, next)
			if next == old {
				// Value-unchanged update: a'(node) — and thus every G'
				// weight — is identical. Absorb it for free instead of
				// forcing a rebuild.
				rs.Skipped++
				continue
			}
			if weight == nil {
				continue // raw indexes are indifferent to authority
			}
			if oldWeight == nil {
				return nil, rs, false
			}
			// The update re-weights exactly the node's incident edges
			// (bounds are unchanged, checked above, so all other G'
			// weights are stable). Authority increases make them all
			// lighter — batch re-insertions; decreases make them heavier
			// — one *atomic* decremental batch (repairing the edges one
			// at a time would corrupt the tight-chain detection, see
			// pll.IncreaseEdges). pg's adjacency is the node's adjacency
			// at this point of the delta, so earlier insertions are
			// included and earlier removals excluded.
			var heavier []pll.EdgeChange
			pg.Neighbors(m.Node, func(v expertgraph.NodeID, raw float64) bool {
				oS, nS := oldWeight(m.Node, v, raw), weight(m.Node, v, raw)
				switch {
				case nS < oS:
					d.InsertEdge(pg, m.Node, v, raw)
				case nS > oS:
					heavier = append(heavier, pll.EdgeChange{U: m.Node, V: v, WOld: []float64{oS, nS}})
				}
				return true
			})
			if len(heavier) > 0 {
				d.IncreaseEdges(pg, heavier)
			}
			rs.Authority++
		}
	}
	rs.Visits = d.Visits()
	return d.Freeze(), rs, true
}

// patchGraph is a cheap mutable adjacency overlay used only inside
// MaintainIndex: it replays the mutation delta over the `from` view
// one op at a time, so each repair traverses exactly the graph its
// mutation produced. Rows are copied from the base lazily, on first
// touch; untouched nodes read straight through.
type patchGraph struct {
	base expertgraph.GraphView
	n    int
	adj  map[expertgraph.NodeID][]patchHalf
}

type patchHalf struct {
	to expertgraph.NodeID
	w  float64
}

func newPatchGraph(base expertgraph.GraphView) *patchGraph {
	return &patchGraph{base: base, n: base.NumNodes(), adj: make(map[expertgraph.NodeID][]patchHalf)}
}

// Neighbors implements pll.Neighborhood.
func (p *patchGraph) Neighbors(u expertgraph.NodeID, fn func(v expertgraph.NodeID, w float64) bool) {
	if row, ok := p.adj[u]; ok {
		for _, e := range row {
			if !fn(e.to, e.w) {
				return
			}
		}
		return
	}
	p.base.Neighbors(u, fn)
}

// row returns u's mutable adjacency, copying it out of the base view
// on first touch.
func (p *patchGraph) row(u expertgraph.NodeID) []patchHalf {
	if row, ok := p.adj[u]; ok {
		return row
	}
	var row []patchHalf
	if int(u) < p.base.NumNodes() {
		p.base.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			row = append(row, patchHalf{to: v, w: w})
			return true
		})
	}
	p.adj[u] = row
	return row
}

func (p *patchGraph) addNode() {
	p.adj[expertgraph.NodeID(p.n)] = nil
	p.n++
}

func (p *patchGraph) addEdge(u, v expertgraph.NodeID, w float64) {
	p.adj[u] = append(p.row(u), patchHalf{to: v, w: w})
	p.adj[v] = append(p.row(v), patchHalf{to: u, w: w})
}

func (p *patchGraph) removeEdge(u, v expertgraph.NodeID) {
	p.dropHalf(u, v)
	p.dropHalf(v, u)
}

func (p *patchGraph) dropHalf(u, v expertgraph.NodeID) {
	row := p.row(u)
	for i, e := range row {
		if e.to == v {
			last := len(row) - 1
			row[i] = row[last]
			p.adj[u] = row[:last]
			return
		}
	}
}

func (p *patchGraph) updateEdge(u, v expertgraph.NodeID, w float64) {
	p.setHalf(u, v, w)
	p.setHalf(v, u, w)
}

func (p *patchGraph) setHalf(u, v expertgraph.NodeID, w float64) {
	row := p.row(u)
	for i := range row {
		if row[i].to == v {
			row[i].w = w
			return
		}
	}
}

// sameBounds reports whether the min–max normalization inputs of Def. 4
// are identical between two graph views, which makes their fitted
// Params (at equal γ, λ) produce identical G' weights for shared edges.
func sameBounds(a, b expertgraph.GraphView) bool {
	aw0, aw1 := a.EdgeWeightBounds()
	bw0, bw1 := b.EdgeWeightBounds()
	ai0, ai1 := a.InvAuthorityBounds()
	bi0, bi1 := b.InvAuthorityBounds()
	return aw0 == bw0 && aw1 == bw1 && ai0 == bi0 && ai1 == bi1
}
