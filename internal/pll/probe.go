package pll

import "authteam/internal/expertgraph"

// Probe answers Dist(src, v) for one fixed source at a time over a
// frozen Index — the access pattern of a root scan, which asks for the
// distance from every candidate root to every holder of every required
// skill. Index.Dist decodes both packed labels on every call; a probe
// decodes the source's label once into a rank-indexed array and each
// target's label once per scan, so a query becomes one pass over the
// target's decoded entries adding the same two hub distances the
// merge-join adds. Distances are bit-identical to Index.Dist.
//
// A probe is scratch for one scan on one goroutine: rank-indexed
// source distances plus the decoded labels of the targets asked for so
// far, which live as long as the probe. Not safe for concurrent use.
type Probe struct {
	ix  *Index
	src expertgraph.NodeID
	// hub[r] is the source's label distance to the hub of rank r, +Inf
	// for ranks outside the label; loaded lists the ranks set.
	hub    []float64
	loaded []int32
	// Decoded target labels: slot[v] is v's position in decoding order
	// (-1 if not decoded yet), and the k-th decoded label occupies
	// entries[bounds[k]:bounds[k+1]].
	slot    []int32
	bounds  []int32
	entries []labelEntry
}

// NewProbe returns a probe over ix with no source loaded; call Source
// before To.
func (ix *Index) NewProbe() *Probe {
	p := &Probe{
		ix:     ix,
		src:    -1,
		hub:    make([]float64, ix.n),
		slot:   make([]int32, ix.n),
		bounds: []int32{0},
	}
	for i := range p.hub {
		p.hub[i] = infinity
		p.slot[i] = -1
	}
	return p
}

// Source makes src the source of the following To calls.
func (p *Probe) Source(src expertgraph.NodeID) {
	for _, r := range p.loaded {
		p.hub[r] = infinity
	}
	p.loaded = p.loaded[:0]
	p.src = src
	c := p.ix.cursor(src)
	for c.next() {
		p.hub[c.rank] = c.dist
		p.loaded = append(p.loaded, c.rank)
	}
}

// To returns the exact shortest-path distance from the current source
// to v, or +Inf when they are disconnected. It equals
// Index.Dist(src, v) bit for bit: the minimum over the hubs both labels
// share of the source's hub distance plus v's, where a hub outside the
// source's label contributes +Inf and so never wins.
func (p *Probe) To(v expertgraph.NodeID) float64 {
	if v == p.src {
		return 0
	}
	k := p.slot[v]
	if k < 0 {
		k = p.decode(v)
	}
	best := infinity
	for _, e := range p.entries[p.bounds[k]:p.bounds[k+1]] {
		if d := p.hub[e.rank] + e.dist; d < best {
			best = d
		}
	}
	return best
}

// decode appends v's label to the target cache and returns its slot.
func (p *Probe) decode(v expertgraph.NodeID) int32 {
	c := p.ix.cursor(v)
	for c.next() {
		p.entries = append(p.entries, labelEntry{rank: c.rank, dist: c.dist})
	}
	k := int32(len(p.bounds) - 1)
	p.bounds = append(p.bounds, int32(len(p.entries)))
	p.slot[v] = k
	return k
}
