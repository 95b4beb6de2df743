// Package pll implements Pruned Landmark Labeling (2-hop cover) for
// weighted undirected graphs, following Akiba, Iwata and Yoshida
// (SIGMOD 2013) — the index the paper uses to answer the DIST calls of
// Algorithm 1 in (near) constant time.
//
// Construction runs a pruned Dijkstra from every node in landmark order
// (highest degree first by default). A visit of node u at distance d
// from landmark L is pruned when the labels built so far already prove
// dist(L,u) ≤ d; otherwise (L,d) is appended to u's label. A single
// query (Index.Dist) merge-joins the two sorted label arrays. For
// small-world graphs such as co-authorship networks labels stay short,
// giving microsecond queries over graphs where per-query Dijkstra
// would be milliseconds.
//
// Algorithm 1 asks for many distances from each root, so its scan
// queries through a Probe instead (probe.go): the source's label is
// decoded once into a rank-indexed array and each target's label once
// per scan, and a distance is one pass over the target's entries. The
// probe adds the same hub distances as the merge-join, so its answers
// are bit-identical to Dist.
//
// Construction first copies the graph into a flat weighted adjacency
// (CSR arrays with Options.Weight applied to every directed edge), so
// the pruned Dijkstras relax arcs without calling back into the
// GraphView or the weight function, then runs one sequential sweep
// over the landmarks. The frozen index stores labels packed
// (delta-encoded varint hub ranks, kind-tagged distances), roughly
// halving the cache footprint of the Dist hot path; see the encoding
// notes on appendEntry.
package pll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"authteam/internal/expertgraph"
)

// infinity is the distance reported for disconnected pairs. It is
// unexported — math.Inf(1) cannot be a Go constant, and an exported
// mutable var would let importers corrupt every distance comparison in
// the package; callers detect disconnection with math.IsInf (the value
// equals expertgraph.Infinity(), the graph layer's shared sentinel).
var infinity = math.Inf(1)

// labelEntry is one hub entry in a node's label: the landmark's rank in
// the construction order and the exact distance to it. This is the
// unpacked working form used during construction and dynamic repair;
// the frozen Index stores the packed encoding instead.
type labelEntry struct {
	rank int32
	dist float64
}

// unpackedEntryBytes is the in-memory footprint of one labelEntry in a
// []labelEntry slice (int32 + float64, padded to 8-byte alignment).
const unpackedEntryBytes = 16

// Index is an immutable 2-hop cover over a fixed graph. It is safe for
// concurrent queries.
//
// Labels are stored packed: the entries of node u occupy the byte range
// data[off[u]:off[u+1]], each entry encoding its hub rank as a varint
// delta over the previous entry (labels are sorted by rank ascending)
// and its distance in one of three kind-tagged forms (zero, exact
// fixed-point under the index's chosen power-of-two scale, raw
// float64). Decoding is exactness-preserving — Dist
// over the packed form returns bit-identical distances to the unpacked
// merge-join.
type Index struct {
	n        int
	off      []int32 // byte offsets into data, len n+1
	data     []byte  // packed label entries
	total    int     // total entry count across all labels
	maxLabel int     // entry count of the longest label
	quant    float64 // fixed-point scale for distFixed entries, a power of two
	// rankOf maps NodeID to its construction rank, and nodeAt is the
	// inverse; exposed for diagnostics and serialization.
	rankOf []int32
	nodeAt []expertgraph.NodeID
}

// Order determines the landmark processing order. Better orders put
// central nodes first, which prunes more and keeps labels short.
type Order int

const (
	// OrderDegree processes nodes by descending degree (ties by ID).
	// This is the standard heuristic from the PLL paper.
	OrderDegree Order = iota
	// OrderNatural processes nodes in NodeID order; mainly for tests,
	// since it produces much larger labels.
	OrderNatural
)

// Options configures index construction.
type Options struct {
	Order Order
	// Weight optionally reweights each edge during construction,
	// allowing an index over the transformed graph G' (§3.2.2 of the
	// paper) without materializing it. Nil means stored weights.
	Weight func(u, v expertgraph.NodeID, w float64) float64
	// Workers is ignored; every build runs one sequential sweep.
	//
	// Deprecated: no build shards any more. The field remains only
	// because the servebench module sets it, and goes with that
	// module's next change.
	Workers int
}

// Build constructs the index for g with default options.
func Build(g expertgraph.GraphView) *Index {
	return BuildWithOptions(g, Options{})
}

// BuildWithOptions constructs the index for g. Any GraphView works:
// the graph is copied once into a flat weighted adjacency (see
// flatten), so the pruned Dijkstras never call back into the view.
func BuildWithOptions(g expertgraph.GraphView, opt Options) *Index {
	n := g.NumNodes()
	nodeAt, rankOf := landmarkOrder(g, opt.Order)
	adj := flatten(g, opt.Weight)
	labels := make([][]labelEntry, n)
	sc := newBuildScratch(n)
	for r := 0; r < n; r++ {
		prunedSweep(adj, labels, nodeAt[r], int32(r), sc)
	}
	return packIndex(labels, rankOf, nodeAt)
}

// landmarkOrder computes the landmark processing order and its inverse.
func landmarkOrder(g expertgraph.GraphView, order Order) ([]expertgraph.NodeID, []int32) {
	n := g.NumNodes()
	nodeAt := make([]expertgraph.NodeID, n)
	rankOf := make([]int32, n)
	for i := 0; i < n; i++ {
		nodeAt[i] = expertgraph.NodeID(i)
	}
	if order != OrderNatural {
		sort.SliceStable(nodeAt, func(a, b int) bool {
			da, db := g.Degree(nodeAt[a]), g.Degree(nodeAt[b])
			if da != db {
				return da > db
			}
			return nodeAt[a] < nodeAt[b]
		})
	}
	for r, u := range nodeAt {
		rankOf[u] = int32(r)
	}
	return nodeAt, rankOf
}

// adjacency is the graph a build searches, flattened into CSR arrays:
// the arcs of u are to[off[u]:off[u+1]] with search weights w, in the
// view's Neighbors order and with Options.Weight already applied to
// each directed edge. A build relaxes every arc many times, so paying
// the interface callback and the weight function once per arc instead
// is most of what flattening saves.
type adjacency struct {
	off []int
	to  []expertgraph.NodeID
	w   []float64
}

// flatten copies g into an adjacency, applying weight (nil = stored
// weights) exactly as a relaxation from u to v would.
func flatten(g expertgraph.GraphView, weight func(u, v expertgraph.NodeID, w float64) float64) *adjacency {
	n := g.NumNodes()
	a := &adjacency{
		off: make([]int, n+1),
		to:  make([]expertgraph.NodeID, 0, 2*g.NumEdges()),
		w:   make([]float64, 0, 2*g.NumEdges()),
	}
	for u := expertgraph.NodeID(0); int(u) < n; u++ {
		g.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if weight != nil {
				w = weight(u, v, w)
			}
			a.to = append(a.to, v)
			a.w = append(a.w, w)
			return true
		})
		a.off[u+1] = len(a.to)
	}
	return a
}

// prunedSweep runs landmark lm's pruned Dijkstra over adj against the
// labels committed so far (all ranks below r must be complete) and
// appends (r, d) to the label of every node it settles unpruned.
// Committing at the settle cannot change a later prune test: a node's
// test reads its own label, which gains rank r only when the node
// itself settles, and the landmark's hub distances, loaded before the
// search starts.
func prunedSweep(adj *adjacency, labels [][]labelEntry, lm expertgraph.NodeID, r int32, sc *buildScratch) {
	// Load the landmark's current label into hubDist.
	for _, e := range labels[lm] {
		sc.hubDist[e.rank] = e.dist
	}

	sc.h.reset()
	sc.h.push(lm, 0)
	sc.dist[lm] = 0
	sc.touched = append(sc.touched[:0], lm)

	for sc.h.len() > 0 {
		u, du := sc.h.pop()
		if sc.visited[u] || du > sc.dist[u] {
			continue
		}
		sc.visited[u] = true
		// Prune: can existing labels already certify d(lm,u) ≤ du?
		pruned := false
		for _, e := range labels[u] {
			if hd := sc.hubDist[e.rank]; hd+e.dist <= du {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		labels[u] = append(labels[u], labelEntry{rank: r, dist: du})
		for i, end := adj.off[u], adj.off[u+1]; i < end; i++ {
			v := adj.to[i]
			if nd := du + adj.w[i]; nd < sc.dist[v] {
				if sc.dist[v] == infinity {
					sc.touched = append(sc.touched, v)
				}
				sc.dist[v] = nd
				sc.h.push(v, nd)
			}
		}
	}

	// Reset scratch for the next landmark.
	sc.clear()
	for _, e := range labels[lm] {
		sc.hubDist[e.rank] = infinity
	}
}

// buildScratch is the per-sweep working set of one pruned Dijkstra:
// tentative distances, visited flags, the landmark's hub distances and
// the touched list that makes resets O(|touched|).
type buildScratch struct {
	dist    []float64
	visited []bool
	hubDist []float64
	touched []expertgraph.NodeID
	h       *pairHeap
}

func newBuildScratch(n int) *buildScratch {
	sc := &buildScratch{
		dist:    make([]float64, n),
		visited: make([]bool, n),
		hubDist: make([]float64, n),
		h:       newPairHeap(n),
	}
	for i := 0; i < n; i++ {
		sc.dist[i] = infinity
		sc.hubDist[i] = infinity
	}
	return sc
}

// clear resets dist/visited for the nodes touched by the last sweep.
func (sc *buildScratch) clear() {
	for _, u := range sc.touched {
		sc.dist[u] = infinity
		sc.visited[u] = false
	}
}

// --- Packed label encoding ---------------------------------------------

// Distance encoding kinds, stored in the low 2 bits of each entry's
// varint header. The header is uvarint((rankDelta << 2) | kind) where
// rankDelta is the gap to the previous entry's rank (previous = -1 for
// the first entry, so deltas are always ≥ 1 and the header is never 0).
const (
	distZero  = 0 // distance is exactly 0 (the landmark's own entry)
	distFixed = 1 // uvarint q follows; distance = q / 2^16, exact
	distFloat = 2 // 8 bytes follow: the raw IEEE-754 little-endian bits
)

// defaultQuantScale is the fixed-point denominator used when the scale
// chooser has no signal (an empty index) and for legacy files that
// predate per-index scales. Scaling by a power of two is exact in
// binary floating point, so a distance is stored quantized only when
// float64(q)/quant round-trips to the identical bit pattern — integer
// and dyadic distances (unit-weight graphs, halved weights) pack into
// a few bytes while arbitrary sums fall back to distFloat. Exactness
// of Dist never depends on the quantization hit rate.
const defaultQuantScale = 1 << 16

// maxFixed bounds the fixed-point payload: beyond it the uvarint would
// be at least as long as the 8 raw float bytes.
const (
	maxFixedBits = 49
	maxFixed     = 1 << maxFixedBits
)

// maxQuantShift caps the per-index scale exponent considered by
// chooseQuant: scales above 2^30 leave less than 19 bits of integer
// headroom under maxFixed, too little for real distance ranges.
const maxQuantShift = 30

// chooseQuant picks the fixed-point scale for one index: the power of
// two 2^k (k in [0, maxQuantShift]) under which the most label
// distances encode as distFixed. Each nonzero distance's workable
// exponents form a contiguous window (quantWindow), so a difference
// array over k counts every window in one pass. Ties prefer the
// smallest k, which yields the shortest uvarint payloads; with no
// signal at all the legacy default wins.
func chooseQuant(labels [][]labelEntry) float64 {
	var diff [maxQuantShift + 2]int
	for _, l := range labels {
		for _, e := range l {
			if lo, hi, ok := quantWindow(e.dist); ok {
				diff[lo]++
				diff[hi+1]--
			}
		}
	}
	best, bestCount, covered := 0, 0, 0
	for k := 0; k <= maxQuantShift; k++ {
		covered += diff[k]
		if covered > bestCount {
			best, bestCount = k, covered
		}
	}
	if bestCount == 0 {
		return defaultQuantScale
	}
	return float64(uint64(1) << uint(best))
}

// quantWindow returns the exponents k in [0, maxQuantShift] under
// which d packs as distFixed: lo is the first k making d·2^k integral,
// hi the last keeping d·2^k below maxFixed. ok is false when no k
// works, and for zero (distZero needs no scale), negative, infinite or
// NaN d. Writing d = m·2^(e−53) with m the 53-bit integer frac·2^53
// from math.Frexp, d·2^k is integral exactly when k ≥ 53 − e − tz(m),
// and below 2^maxFixedBits exactly when k ≤ maxFixedBits − e.
func quantWindow(d float64) (lo, hi int, ok bool) {
	if !(d > 0 && d < maxFixed) {
		return 0, 0, false
	}
	frac, e := math.Frexp(d)
	m := uint64(frac * (1 << 53))
	lo = max(0, 53-e-bits.TrailingZeros64(m))
	hi = min(maxQuantShift, maxFixedBits-e)
	return lo, hi, lo <= hi
}

// appendEntry appends one packed label entry to data and returns the
// extended slice. prevRank is the rank of the previous entry in the
// same label (-1 for the first); quant is the index's fixed-point
// scale, a power of two.
func appendEntry(data []byte, prevRank, rank int32, dist, quant float64) []byte {
	delta := uint64(rank - prevRank)
	if dist == 0 {
		return binary.AppendUvarint(data, delta<<2|distZero)
	}
	if s := dist * quant; s > 0 && s < maxFixed && s == math.Trunc(s) {
		data = binary.AppendUvarint(data, delta<<2|distFixed)
		return binary.AppendUvarint(data, uint64(s))
	}
	data = binary.AppendUvarint(data, delta<<2|distFloat)
	return binary.LittleEndian.AppendUint64(data, math.Float64bits(dist))
}

// labelCursor decodes one node's packed label entry by entry.
type labelCursor struct {
	data     []byte
	pos, end int
	rank     int32
	dist     float64
	quant    float64 // owning index's fixed-point scale
}

// cursor positions a labelCursor at the start of u's label.
func (ix *Index) cursor(u expertgraph.NodeID) labelCursor {
	return labelCursor{
		data: ix.data, pos: int(ix.off[u]), end: int(ix.off[u+1]),
		rank: -1, quant: ix.quant,
	}
}

// next decodes the next entry into c.rank/c.dist, reporting false at
// the end of the label.
func (c *labelCursor) next() bool {
	if c.pos >= c.end {
		return false
	}
	h := c.uvarint()
	c.rank += int32(h >> 2)
	switch h & 3 {
	case distZero:
		c.dist = 0
	case distFixed:
		c.dist = float64(c.uvarint()) / c.quant
	default:
		c.dist = math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.pos:]))
		c.pos += 8
	}
	return true
}

// uvarint decodes an unsigned varint at c.pos, advancing it. Inlined
// by hand (rather than binary.Uvarint) because it sits on the Dist hot
// path. Packed data comes from appendEntry or from a file Read has
// validated, so the encoding is trusted.
func (c *labelCursor) uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		b := c.data[c.pos]
		c.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

// packIndex freezes per-node labels (sorted by rank ascending) into a
// packed Index.
func packIndex(labels [][]labelEntry, rankOf []int32, nodeAt []expertgraph.NodeID) *Index {
	n := len(labels)
	ix := &Index{
		n:      n,
		off:    make([]int32, n+1),
		quant:  chooseQuant(labels),
		rankOf: rankOf,
		nodeAt: nodeAt,
	}
	for _, l := range labels {
		ix.total += len(l)
		ix.maxLabel = max(ix.maxLabel, len(l))
	}
	ix.data = make([]byte, 0, 6*ix.total)
	for u, l := range labels {
		prev := int32(-1)
		for _, e := range l {
			ix.data = appendEntry(ix.data, prev, e.rank, e.dist, ix.quant)
			prev = e.rank
		}
		ix.off[u+1] = int32(len(ix.data))
	}
	return ix
}

// unpackLabels decodes the packed labels back into the mutable
// per-node form used by DynamicIndex repair.
func (ix *Index) unpackLabels() [][]labelEntry {
	labels := make([][]labelEntry, ix.n)
	for u := 0; u < ix.n; u++ {
		c := ix.cursor(expertgraph.NodeID(u))
		if c.pos == c.end {
			continue
		}
		l := make([]labelEntry, 0, 4)
		for c.next() {
			l = append(l, labelEntry{rank: c.rank, dist: c.dist})
		}
		labels[u] = l
	}
	return labels
}

// Dist returns the exact shortest-path distance between u and v, or
// +Inf when they are disconnected.
func (ix *Index) Dist(u, v expertgraph.NodeID) float64 {
	if u == v {
		return 0
	}
	cu, cv := ix.cursor(u), ix.cursor(v)
	best := infinity
	okU, okV := cu.next(), cv.next()
	for okU && okV {
		switch {
		case cu.rank == cv.rank:
			if d := cu.dist + cv.dist; d < best {
				best = d
			}
			okU, okV = cu.next(), cv.next()
		case cu.rank < cv.rank:
			okU = cu.next()
		default:
			okV = cv.next()
		}
	}
	return best
}

// NumNodes returns the number of indexed nodes.
func (ix *Index) NumNodes() int { return ix.n }

// LabelSize returns the number of hub entries in u's label.
func (ix *Index) LabelSize(u expertgraph.NodeID) int {
	c := ix.cursor(u)
	count := 0
	for c.next() {
		count++
	}
	return count
}

// Stats summarizes the index for logging and benchmarking.
type Stats struct {
	Nodes        int
	TotalEntries int
	AvgLabelSize float64
	MaxLabelSize int
	// Bytes is the resident size of the index: the packed label store
	// plus offsets and the rank permutation.
	Bytes int
	// PackedBytes is the packed label store alone; UnpackedBytes is
	// what the same entries occupy in []labelEntry form (16 B each),
	// i.e. what the label store cost before compression.
	PackedBytes   int
	UnpackedBytes int
}

// Stats reports index statistics in O(1): packIndex and Read's
// validation pass record the longest label.
func (ix *Index) Stats() Stats {
	s := Stats{Nodes: ix.n, TotalEntries: ix.total, MaxLabelSize: ix.maxLabel}
	if ix.n > 0 {
		s.AvgLabelSize = float64(s.TotalEntries) / float64(ix.n)
	}
	s.PackedBytes = len(ix.data)
	s.UnpackedBytes = ix.total * unpackedEntryBytes
	s.Bytes = len(ix.data) + len(ix.off)*4 + len(ix.rankOf)*4 + len(ix.nodeAt)*4
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("pll{nodes: %d, entries: %d, avg: %.1f, max: %d, ~%dKB packed (%dKB unpacked)}",
		s.Nodes, s.TotalEntries, s.AvgLabelSize, s.MaxLabelSize, s.Bytes/1024, s.UnpackedBytes/1024)
}

// pairHeap is a plain binary min-heap of (node, priority) pairs with
// lazy deletion — pruned Dijkstra never needs decrease-key because
// stale entries are skipped on pop. Each pair is one item, and push
// and pop sift a hole instead of swapping, writing the moved item once
// at the end. Pops of equal priority come out in no particular order;
// a search that settles each node at its least priority does not
// depend on it.
type pairHeap struct {
	items []heapItem
}

type heapItem struct {
	prio float64
	node expertgraph.NodeID
}

func newPairHeap(capacity int) *pairHeap {
	return &pairHeap{items: make([]heapItem, 0, capacity)}
}

func (h *pairHeap) reset() { h.items = h.items[:0] }

func (h *pairHeap) len() int { return len(h.items) }

func (h *pairHeap) push(u expertgraph.NodeID, p float64) {
	h.items = append(h.items, heapItem{})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].prio <= p {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = heapItem{prio: p, node: u}
}

func (h *pairHeap) pop() (expertgraph.NodeID, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && h.items[r].prio < h.items[c].prio {
				c = r
			}
			if h.items[c].prio >= x.prio {
				break
			}
			h.items[i] = h.items[c]
			i = c
		}
		h.items[i] = x
	}
	return top.node, top.prio
}
