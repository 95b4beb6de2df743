package node

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/obs"
	"authteam/internal/oracle"
	"authteam/internal/pll"
	"authteam/internal/transform"
)

// repairBudget caps the delta, in mutations, that incremental repair
// carries a cover across; a longer delta rebuilds it in the background.
const repairBudget = 512

// maxResidentIndexes bounds the number of distinct 2-hop covers kept in
// memory. CC traffic shares one raw-weight index; CA-CC and SA-CA-CC
// traffic shares one index per γ (λ only shifts holder costs, not edge
// weights), so real deployments need two or three. The bound only
// protects against adversarial γ sweeps.
const maxResidentIndexes = 8

// indexSet owns the node's 2-hop cover indexes. Building one is the
// expensive amortized step of the paper (§4.1), so the set memoizes per
// weight-function key, carries resident indexes across graph epochs
// with incremental repair (live.MaintainIndex), and optionally persists
// each index for instant reloads on restart.
//
// Snapshot discipline: every lookup is against one snapshot, and the
// returned oracle (when non-nil) answers distances for exactly that
// snapshot's lineage and epoch. A lookup that cannot be satisfied
// without a full rebuild kicks the rebuild asynchronously and returns
// nil — the discovery layer then falls back to exact per-root
// Dijkstra, so queries never see distances from a dead epoch.
type indexSet struct {
	// base is the persistence path prefix ("" disables persistence);
	// the index for key k lives at <base>.pll-<k>, its first line
	// naming the epoch it was built at.
	base string
	// store anchors persisted indexes: a file saved at epoch E is
	// thawed against the store's reconstructed epoch-E snapshot and
	// repaired forward to the serving epoch.
	store *live.Store
	// normalize is the node's fit setting, used to re-fit the epoch a
	// persisted index was saved at.
	normalize bool

	mu      sync.Mutex
	entries map[string]*indexEntry
	// building holds one latch per in-flight build/repair. Requests
	// finding a latch AND a resident (stale) entry return immediately
	// with nil; requests finding a latch and no entry (cold start)
	// wait, preserving the original build-once behavior.
	building map[string]chan struct{}
	// closed (under mu) stops new background rebuilds; rebuildWG counts
	// the running ones, so close can wait for them.
	closed    bool
	rebuildWG sync.WaitGroup

	pending  atomic.Int32  // in-flight async rebuilds
	repairs  atomic.Uint64 // incremental repairs applied
	rebuilds atomic.Uint64 // full builds (cold, stale-load, async)
	// Repair-kind breakdown: what flavour of delta each repair
	// absorbed. A repair with any removal counts as decremental, else
	// any re-weight (edge weight or authority change) as reweight, else
	// insert — so under mixed churn the decremental and reweight
	// counters climbing while full_rebuilds stays flat is the evidence
	// the 2-hop cover is fully dynamic.
	repairsInsert      atomic.Uint64
	repairsDecremental atomic.Uint64
	repairsReweight    atomic.Uint64

	// Registry instruments (nil with observation off; every obs method
	// is a nil-safe no-op, so the maintenance paths need no guards).
	repairHist   *obs.HistogramVec // authteam_index_repair_seconds{kind}
	repairVisits *obs.CounterVec   // authteam_index_repair_visits_total{kind}
	rebuildHist  *obs.Histogram    // authteam_index_rebuild_seconds
}

// indexEntry pairs a resident oracle with the snapshot it is exact
// for. The snapshot is retained so the next epoch's repair can diff
// against it (mutation window, normalization bounds), and params holds
// the fit the index's weight function was derived from (nil for the
// raw-weight CC index) — the decremental repair of a later epoch needs
// the *old* weight function to recognize entries built under it.
type indexEntry struct {
	oracle *oracle.PLLOracle
	snap   *live.Snapshot
	params *transform.Params
}

func newIndexSet(base string, store *live.Store, normalize bool, reg *obs.Registry) *indexSet {
	s := &indexSet{
		base:      base,
		store:     store,
		normalize: normalize,
		entries:   make(map[string]*indexEntry),
		building:  make(map[string]chan struct{}),
	}
	if reg != nil {
		s.repairHist = reg.HistogramVec("authteam_index_repair_seconds",
			"Incremental 2-hop cover repair duration by delta kind.", nil, "kind")
		s.repairVisits = reg.CounterVec("authteam_index_repair_visits_total",
			"Labels touched by incremental repairs, by delta kind.", "kind")
		s.rebuildHist = reg.Histogram("authteam_index_rebuild_seconds",
			"Full 2-hop cover build duration.", nil)
		reg.GaugeFunc("authteam_index_rebuild_queue_depth",
			"Asynchronous index rebuilds currently in flight.",
			func() float64 { return float64(s.pending.Load()) })
		reg.CounterFunc("authteam_index_repairs_total",
			"Incremental index repairs applied.",
			func() float64 { return float64(s.repairs.Load()) })
		reg.CounterFunc("authteam_index_rebuilds_total",
			"Full index builds (cold start, stale load, async refresh).",
			func() float64 { return float64(s.rebuilds.Load()) })
	}
	return s
}

// indexKey canonically names the weight function an index was built
// over: raw stored weights for CC, the G' weights at γ otherwise.
func indexKey(m core.Method, gamma float64) string {
	if m == core.CC {
		return "cc"
	}
	return fmt.Sprintf("g%.9g", gamma)
}

// stats reports the set's maintenance counters.
func (s *indexSet) stats() IndexStats {
	return IndexStats{
		PendingRebuild:     s.pending.Load() > 0,
		IncrementalRepairs: s.repairs.Load(),
		FullRebuilds:       s.rebuilds.Load(),
		RepairsInsert:      s.repairsInsert.Load(),
		RepairsDecremental: s.repairsDecremental.Load(),
		RepairsReweight:    s.repairsReweight.Load(),
	}
}

// countRepair folds one successful MaintainIndex outcome into the
// kind counters and the per-kind duration histogram. A delta absorbed
// entirely for free (only skipped no-ops — value-unchanged authority
// updates, skill grants) counts toward the repair total but toward no
// kind: nothing was inserted, removed or re-weighted.
func (s *indexSet) countRepair(rs live.RepairStats, elapsed time.Duration) {
	s.repairs.Add(1)
	kind := "noop"
	switch {
	case rs.Decremental():
		s.repairsDecremental.Add(1)
		kind = "decremental"
	case rs.Reweight():
		s.repairsReweight.Add(1)
		kind = "reweight"
	case rs.Inserted > 0:
		s.repairsInsert.Add(1)
		kind = "insert"
	}
	s.repairHist.With(kind).Observe(elapsed.Seconds())
	s.repairVisits.With(kind).Add(uint64(rs.Visits))
}

// sameState reports whether two snapshots of the store describe the
// same state: one adoption lineage, one epoch.
func sameState(a, b *live.Snapshot) bool {
	return a.Adoptions() == b.Adoptions() && a.Epoch() == b.Epoch()
}

// older reports whether a precedes b in the store's history. Epochs
// order snapshots only within one lineage; across an adoption the later
// lineage is the newer state, whatever its epoch.
func older(a, b *live.Snapshot) bool {
	if a.Adoptions() != b.Adoptions() {
		return a.Adoptions() < b.Adoptions()
	}
	return a.Epoch() < b.Epoch()
}

// forMethod returns an index oracle serving method m under params p at
// snap, or nil when no index exact for snap is resident yet (the
// caller must then answer with per-root Dijkstra). A resident index of
// the same state is served with a map lookup; a stale resident index
// is repaired in place when the mutation delta allows it and rebuilt
// asynchronously otherwise (always across an adoption); a missing key
// is built synchronously, exactly once.
func (s *indexSet) forMethod(snap *live.Snapshot, p *transform.Params, m core.Method) oracle.Oracle {
	key := indexKey(m, p.Gamma)
	s.mu.Lock()
	for {
		if e, ok := s.entries[key]; ok && sameState(e.snap, snap) {
			s.mu.Unlock()
			return e.oracle
		}
		latch, inflight := s.building[key]
		if !inflight {
			break
		}
		if _, ok := s.entries[key]; ok {
			// A repair/rebuild is in flight; don't serve the dead
			// epoch and don't queue behind the refresh.
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		<-latch
		s.mu.Lock()
	}
	stale := s.entries[key]
	latch := make(chan struct{})
	s.building[key] = latch
	s.mu.Unlock()

	install := func(e *indexEntry) {
		s.mu.Lock()
		if e != nil {
			// Evict a sibling only when this key actually grows the
			// map; replacing a resident key in place must not cost an
			// unrelated index its slot.
			if _, resident := s.entries[key]; !resident && len(s.entries) >= maxResidentIndexes {
				for k := range s.entries {
					if k != key {
						delete(s.entries, k)
						break
					}
				}
			}
			s.entries[key] = e
		}
		delete(s.building, key)
		s.mu.Unlock()
		close(latch)
	}

	// entryParams records the fit a weighted index's weight function
	// came from; the next repair needs it as its oldWeight.
	var entryParams *transform.Params
	if m != core.CC {
		entryParams = p
	}

	if stale == nil {
		// Cold start for this key: disk, else a synchronous build.
		o := s.load(key, snap, p, m)
		if o == nil {
			o = s.build(snap, p, m)
			s.rebuilds.Add(1)
			s.save(key, o.Index(), snap.Epoch())
		}
		install(&indexEntry{oracle: o, snap: snap, params: entryParams})
		return o
	}

	// A snapshot older than the resident entry (a slow request that
	// resolved its snapshot before a sibling refreshed the index) must
	// not rebuild for its already-dead state, let alone overwrite the
	// newer entry: answer it with per-root Dijkstra and move on.
	if older(snap, stale.snap) {
		install(nil)
		return nil
	}

	// Stale resident index: prefer carrying it forward incrementally.
	// The old fit (the weights the resident entries were created under)
	// rides along so decremental and authority re-weight repairs can
	// recognize them. MaintainIndex refuses a pair of snapshots that
	// straddles an adoption, so a cover of another lineage is rebuilt.
	var weight, oldWeight live.WeightFunc
	if m != core.CC {
		weight = p.EdgeWeight()
		if stale.params != nil {
			oldWeight = stale.params.EdgeWeight()
		}
	}
	rstart := time.Now()
	if ix, rs, ok := live.MaintainIndex(stale.oracle.Index(), stale.snap, snap, weight, oldWeight, repairBudget); ok {
		o := oracle.NewPLL(ix)
		s.countRepair(rs, time.Since(rstart))
		install(&indexEntry{oracle: o, snap: snap, params: entryParams})
		return o
	}

	// Not repairable (normalization shift, adoption, or past the
	// staleness budget): rebuild off the request path and serve this
	// query — and every query until the build lands — with exact
	// per-root Dijkstra. A closed set starts no rebuild.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		install(nil)
		return nil
	}
	s.rebuildWG.Add(1)
	s.mu.Unlock()
	s.pending.Add(1)
	go func() {
		defer s.rebuildWG.Done()
		defer s.pending.Add(-1)
		o := s.build(snap, p, m)
		s.rebuilds.Add(1)
		s.save(key, o.Index(), snap.Epoch())
		install(&indexEntry{oracle: o, snap: snap, params: entryParams})
	}()
	return nil
}

// close stops new background rebuilds and waits for the running ones.
func (s *indexSet) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.rebuildWG.Wait()
}

// build constructs a fresh 2-hop cover for method m at snap. A full
// build is the one place the serving layer materializes a graph: the
// O(n·m)-ish pruned-Dijkstra sweep touches every edge many times, so it
// runs over the packed CSR copy rather than paying the overlay's
// per-read overhead throughout; queries keep reading the overlay and
// never wait on this copy.
func (s *indexSet) build(snap *live.Snapshot, p *transform.Params, m core.Method) *oracle.PLLOracle {
	start := time.Now()
	var weight oracle.WeightFunc
	if m != core.CC {
		weight = p.EdgeWeight()
	}
	gv := snap.View()
	if g, err := snap.Graph(); err == nil {
		gv = g
	}
	// Mutations are validated before admission, so materialization
	// cannot fail on a live store; falling back to the overlay view
	// degrades a broken invariant to a slower build, not an outage.
	o := oracle.BuildPLL(gv, weight)
	s.rebuildHist.Observe(time.Since(start).Seconds())
	return o
}

// load reads a previously persisted index for key. The index is
// anchored at the epoch its header records: when the serving epoch is
// ahead (journal replayed more mutations since the save), the loaded
// index is repaired across the delta before use, or discarded when the
// delta is not repairable — a persisted index must never be served at
// an epoch it does not describe, and the final distance spot-check
// guards against a silently regenerated graph file.
func (s *indexSet) load(key string, snap *live.Snapshot, p *transform.Params, m core.Method) *oracle.PLLOracle {
	if s.base == "" {
		return nil
	}
	path := s.path(key)
	ix, savedEpoch, err := readCover(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			slog.Warn("node: ignoring index", "path", path, "err", err)
		}
		return nil
	}
	if savedEpoch != snap.Epoch() {
		from, ok := s.store.SnapshotAt(savedEpoch)
		if !ok {
			slog.Warn("node: ignoring index outside the store's history",
				"path", path, "saved_epoch", savedEpoch, "store_epoch", snap.Epoch())
			return nil
		}
		if ix.NumNodes() != from.NumNodes() {
			slog.Warn("node: ignoring stale index",
				"path", path, "index_nodes", ix.NumNodes(),
				"saved_epoch", savedEpoch, "epoch_nodes", from.NumNodes())
			return nil
		}
		var weight, oldWeight live.WeightFunc
		if m != core.CC {
			weight = p.EdgeWeight()
			// A persisted index was built over the fit of its save
			// epoch; re-fit that epoch's view so decremental repair can
			// recognize entries created under the old authorities. The
			// O(n) fit is noise next to the build the repair avoids.
			if oldP, err := transform.Fit(from.View(), p.Gamma, p.Lambda, transform.Options{Normalize: s.normalize}); err == nil {
				oldWeight = oldP.EdgeWeight()
			}
		}
		rstart := time.Now()
		repaired, rs, ok := live.MaintainIndex(ix, from, snap, weight, oldWeight, repairBudget)
		if !ok {
			slog.Warn("node: ignoring index with unrepairable delta",
				"path", path, "saved_epoch", savedEpoch, "store_epoch", snap.Epoch())
			return nil
		}
		s.countRepair(rs, time.Since(rstart))
		ix = repaired
	}
	if ix.NumNodes() != snap.NumNodes() {
		slog.Warn("node: ignoring stale index",
			"path", path, "index_nodes", ix.NumNodes(), "graph_nodes", snap.NumNodes())
		return nil
	}
	o := oracle.NewPLL(ix)
	if !verifyIndex(o, snap.View(), p, m) {
		slog.Warn("node: ignoring stale index with mismatched distances", "path", path)
		return nil
	}
	slog.Info("node: loaded index", "path", path, "epoch", snap.Epoch(), "stats", ix.Stats())
	return o
}

// verifyIndex spot-checks a loaded index against the view's graph: one
// reference SSSP from the highest-degree node, compared at sampled
// targets. Node counts alone cannot catch a regenerated graph with the
// same size but different edges or weights, which would silently make
// every distance wrong. Costs one Dijkstra per load — noise next to a
// rebuild.
func verifyIndex(o *oracle.PLLOracle, g expertgraph.GraphView, p *transform.Params, m core.Method) bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	src := expertgraph.NodeID(0)
	for u := 1; u < n; u++ {
		if g.Degree(expertgraph.NodeID(u)) > g.Degree(src) {
			src = expertgraph.NodeID(u)
		}
	}
	ws := expertgraph.NewDijkstraWorkspace(g)
	var sssp *expertgraph.SSSP
	if m == core.CC {
		sssp = ws.Run(src)
	} else {
		sssp = ws.RunWeighted(src, p.EdgeWeight())
	}
	step := n/64 + 1
	for t := 0; t < n; t += step {
		if !distClose(o.Dist(src, expertgraph.NodeID(t)), sssp.Dist[t]) {
			return false
		}
	}
	return true
}

// distClose compares distances up to float summation-order noise (PLL
// accumulates path weights in a different order than Dijkstra).
func distClose(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// save persists a freshly built index; failures are logged and
// non-fatal because persistence is purely a restart optimization.
// Repaired indexes are not persisted — the journal already makes their
// epochs reproducible, and a restart replays it and repairs again from
// the saved anchor.
func (s *indexSet) save(key string, ix *pll.Index, epoch uint64) {
	if s.base == "" {
		return
	}
	path := s.path(key)
	if err := writeCover(path, ix, epoch); err != nil {
		slog.Warn("node: persist index failed", "path", path, "err", err)
		return
	}
	slog.Info("node: persisted index", "path", path, "epoch", epoch, "stats", ix.Stats())
}

func (s *indexSet) path(key string) string {
	return s.base + ".pll-" + key
}

// coverHeader prefixes the first line of a persisted cover, followed
// by the epoch the cover was built at; the pll encoding follows the
// line.
const coverHeader = "authteam-cover epoch "

// writeCover persists ix with its epoch: to <path>.tmp, then renamed
// into place, so a crash leaves the previous cover or the new one, each
// with its own epoch, never a new cover paired with an old epoch. There
// is no fsync: a cover is a rebuildable cache and Read validates every
// label, so a torn file after a power loss costs one rebuild. The file
// is stamped with the save's wall-clock time: a fresh file inherits the
// filesystem's coarse clock, which can leave a cover rebuilt within one
// timestamp tick with the mtime of the cover it replaced.
func writeCover(path string, ix *pll.Index, epoch uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(coverHeader + strconv.FormatUint(epoch, 10) + "\n")
	if err := pll.Write(bw, ix); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	now := time.Now()
	if err := os.Chtimes(tmp, now, now); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readCover reads a cover written by writeCover and the epoch in its
// header. A file without a parseable header is an error: its epoch is
// unknown, so it cannot be anchored in the store's history.
func readCover(path string) (*pll.Index, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadSlice('\n')
	digits, ok := strings.CutPrefix(strings.TrimSuffix(string(line), "\n"), coverHeader)
	if err != nil || !ok {
		return nil, 0, errors.New("no epoch header")
	}
	epoch, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad epoch header: %w", err)
	}
	ix, err := pll.Read(br)
	if err != nil {
		return nil, 0, err
	}
	return ix, epoch, nil
}
