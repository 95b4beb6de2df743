// Package oracle abstracts the DIST function of Algorithm 1 behind a
// single interface with two implementations: the exact per-source
// Dijkstra (reference, no preprocessing) and the 2-hop cover index
// (pll) that the paper uses for constant-time queries.
//
// Algorithm 1 asks for DIST(root, v) for every candidate root and every
// holder v of every project skill, so its root scan runs source-major
// through a Probe: one source at a time, many targets each. For a PLL
// oracle NewProbe returns a pll.Probe, which decodes each root's label
// and each holder's label once per scan instead of once per pair. Any
// other oracle is adapted by asking its Dist per pair — the Dijkstra
// oracle then still pays one SSSP per root, because it caches the last
// source's full distance array.
package oracle

import (
	"authteam/internal/expertgraph"
	"authteam/internal/pll"
)

// Oracle answers exact shortest-path distance queries over a fixed
// (possibly reweighted) graph.
type Oracle interface {
	// Dist returns the shortest-path distance from u to v, or +Inf if
	// v is unreachable from u.
	Dist(u, v expertgraph.NodeID) float64
}

// Probe answers DIST queries from one source at a time, over one scan.
// It is not safe for concurrent use; create one per scan with NewProbe.
type Probe interface {
	// Source makes src the source of the following To calls.
	Source(src expertgraph.NodeID)
	// To returns the distance from the current source to v, exactly
	// what the oracle's Dist(src, v) returns.
	To(v expertgraph.NodeID) float64
}

// NewProbe returns a probe over o: a pll.Probe over the index of a
// PLLOracle, otherwise an adapter calling o.Dist per pair.
func NewProbe(o Oracle) Probe {
	if po, ok := o.(*PLLOracle); ok {
		return po.ix.NewProbe()
	}
	return &distProbe{o: o}
}

// distProbe adapts a Dist-only oracle to Probe.
type distProbe struct {
	o   Oracle
	src expertgraph.NodeID
}

func (p *distProbe) Source(src expertgraph.NodeID)   { p.src = src }
func (p *distProbe) To(v expertgraph.NodeID) float64 { return p.o.Dist(p.src, v) }

// WeightFunc reweights an edge (u, v) with stored weight w. It is how
// the transformed graph G' of §3.2.2 is searched without materializing
// it.
type WeightFunc func(u, v expertgraph.NodeID, w float64) float64

// DijkstraOracle answers queries by running a full single-source
// shortest path computation and caching it per source. Algorithm 1
// iterates roots in order, issuing many queries per root, so the cache
// hit rate is (queries-1)/queries. It is not safe for concurrent use;
// create one per goroutine.
type DijkstraOracle struct {
	ws     *expertgraph.DijkstraWorkspace
	weight WeightFunc
	src    expertgraph.NodeID
	valid  bool
	dist   []float64
}

// NewDijkstra creates an exact oracle over g. A nil weight uses stored
// edge weights.
func NewDijkstra(g expertgraph.GraphView, weight WeightFunc) *DijkstraOracle {
	return &DijkstraOracle{
		ws:     expertgraph.NewDijkstraWorkspace(g),
		weight: weight,
		dist:   make([]float64, g.NumNodes()),
	}
}

// Dist implements Oracle.
func (o *DijkstraOracle) Dist(u, v expertgraph.NodeID) float64 {
	return o.AllFrom(u)[v]
}

// AllFrom returns the distance array from src to every node. The slice
// is owned by the oracle and invalidated by the next call with a
// different source.
func (o *DijkstraOracle) AllFrom(src expertgraph.NodeID) []float64 {
	if o.valid && o.src == src {
		return o.dist
	}
	var res *expertgraph.SSSP
	if o.weight == nil {
		res = o.ws.Run(src)
	} else {
		res = o.ws.RunWeighted(src, o.weight)
	}
	copy(o.dist, res.Dist)
	o.src, o.valid = src, true
	return o.dist
}

// Invalidate drops the cached source, forcing the next query to
// recompute. Needed only if the underlying weight function's captured
// state changes.
func (o *DijkstraOracle) Invalidate() { o.valid = false }

// PLLOracle adapts a prebuilt 2-hop cover index to the Oracle
// interface. It is safe for concurrent use.
type PLLOracle struct {
	ix *pll.Index
}

// NewPLL wraps a prebuilt index.
func NewPLL(ix *pll.Index) *PLLOracle { return &PLLOracle{ix: ix} }

// BuildPLL constructs a 2-hop cover over g (reweighted by weight if
// non-nil) and returns an oracle over it.
func BuildPLL(g expertgraph.GraphView, weight WeightFunc) *PLLOracle {
	ix := pll.BuildWithOptions(g, pll.Options{Weight: weight})
	return &PLLOracle{ix: ix}
}

// BuildPLLParallel is BuildPLL sharded over workers goroutines. The
// resulting index is bit-identical to the sequential build.
func BuildPLLParallel(g expertgraph.GraphView, weight WeightFunc, workers int) *PLLOracle {
	ix := pll.BuildWithOptions(g, pll.Options{Weight: weight, Workers: workers})
	return &PLLOracle{ix: ix}
}

// Dist implements Oracle.
func (o *PLLOracle) Dist(u, v expertgraph.NodeID) float64 { return o.ix.Dist(u, v) }

// Index returns the wrapped index (for stats and serialization).
func (o *PLLOracle) Index() *pll.Index { return o.ix }

var (
	_ Oracle = (*DijkstraOracle)(nil)
	_ Oracle = (*PLLOracle)(nil)
)
