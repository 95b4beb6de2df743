package live

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"authteam/internal/expertgraph"
)

// Group commit. Mutators don't take the writer lock themselves: they
// enqueue onto an MPSC channel and block on a per-op future while a
// single committer goroutine drains the queue in batches. One batch
// costs one journal record group (one write syscall, one fsync under
// Sync), one writer-lock acquisition, and one epoch publish covering
// every op in it — so N concurrent mutators share the fixed per-commit
// costs instead of each paying them. Epoch numbering stays per-op
// (op i of a batch starting at epoch E gets epoch E+i+1, and the log
// stays strictly per-op), so replication tailing, SnapshotAt,
// MutationsSince and epoch read-your-writes are oblivious to batching.

// commitBatchCap caps ops per group commit.
const commitBatchCap = 256

// maxChainDepth is the overlay chain's refold guard: a batch whose
// parent view already sits at this depth gets a fold of the resident
// log over the base instead of another layer, bounding per-read layer
// walks and amortizing the O(|log|) refold over maxChainDepth
// O(|batch|) extensions.
const maxChainDepth = 16

// commitBatchBuckets sizes the batch-occupancy histogram: powers of
// two up to commitBatchCap.
var commitBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// applyReq is one mutation in flight through the commit pipeline.
type applyReq struct {
	m     Mutation
	newID expertgraph.NodeID // assigned by validation (add_node)
	err   error              // validation failure, settled per-op
	done  chan applyResult   // buffered(1): the committer never blocks
	// group, when non-nil, marks the op as part of an all-or-nothing
	// run (ApplyGroup): the first validation failure of any member
	// aborts every not-yet-committed member, so a replicated batch can
	// never land a suffix at shifted-down epochs past a dropped record.
	// Touched only by the single committer goroutine.
	group *commitGroup
}

// commitGroup is the shared abort flag of one ApplyGroup run. err is
// the first member failure; once set, every member in the same or a
// later batch is refused instead of committed.
type commitGroup struct{ err error }

type applyResult struct {
	id    expertgraph.NodeID
	epoch uint64
	err   error
}

// committer is the single consumer of applyCh: it batches queued
// mutations and commits each batch as one journal group + one epoch
// publish. It exits when Close closes the channel, after committing
// everything already enqueued.
func (s *Store) committer() {
	defer close(s.committerDone)
	for req := range s.applyCh {
		s.commitBatch(s.collectBatch(req))
	}
}

// collectBatch gathers up to commitBatchCap ops: first plus everything
// already queued behind it. Batching comes only from arrival
// concurrency — ops that queued while the previous commit was in
// flight — so a lone mutation never waits for company.
func (s *Store) collectBatch(first *applyReq) []*applyReq {
	batch := append(make([]*applyReq, 0, 16), first)
	for len(batch) < commitBatchCap {
		select {
		case req, ok := <-s.applyCh:
			if !ok {
				return batch
			}
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// commitBatch runs one group commit: validate every op against the
// writer state plus the staged effects of earlier ops in the batch,
// write the survivors as one journal record group, fold them into the
// writer state, publish one snapshot covering all of them (with the
// next chained overlay preset), and only then settle the per-op
// futures — so a mutator's returned epoch is always resolvable
// (read-your-writes).
func (s *Store) commitBatch(batch []*applyReq) {
	var start time.Time
	if s.commitHist != nil {
		start = time.Now()
	}
	s.mu.Lock()
	if s.closed || s.ioErr != nil || s.fenced.Load() {
		var err error
		switch {
		case s.closed:
			err = ErrClosed
		case s.ioErr != nil:
			err = s.ioErr
		default:
			err = &FencedError{Term: s.term.Load()}
		}
		s.mu.Unlock()
		for _, r := range batch {
			r.done <- applyResult{err: err}
		}
		return
	}

	// Phase 1: validate. Failed ops settle their own future with the
	// validation error and drop out; survivors stage their effects into
	// the shadow so later ops in the batch validate against them. Term
	// stamping happens here too: a fresh op (term 0) adopts the current
	// term, a replicated record keeps the term it was minted under, and
	// a record minted under an *older* term than ours is a deposed
	// leader's write — fenced.
	//
	// Grouped ops (ApplyGroup) are all-or-nothing within the batch: the
	// first failure marks the group and validation restarts with every
	// member excluded, so members staged *before* the failure are
	// un-staged too — nothing of a failed group reaches the journal, and
	// a replicated run can never commit records at epochs shifted down
	// by a dropped one. Each restart permanently fails one more group,
	// so the loop is bounded by the number of groups in the batch.
	curTerm := s.term.Load()
	staged := make([]*applyReq, 0, len(batch))
	ms := make([]Mutation, 0, len(batch))
	for {
		sh := s.newBatchShadow()
		staged, ms = staged[:0], ms[:0]
		restart := false
		for _, r := range batch {
			if r.group != nil && r.group.err != nil {
				continue // settled after the loop with the group error
			}
			r.err = nil
			if r.m.Term != 0 && r.m.Term < curTerm {
				r.err = &FencedError{Term: curTerm}
			} else {
				var id expertgraph.NodeID
				if id, r.err = s.validateMutation(&r.m, sh, true); r.err == nil {
					if r.m.Term == 0 {
						r.m.Term = curTerm
					}
					r.newID = id
					sh.stage(r.m)
					staged = append(staged, r)
					ms = append(ms, r.m)
					continue
				}
			}
			if r.group != nil {
				r.group.err = r.err
				restart = true
				break
			}
		}
		if !restart {
			break
		}
	}
	for _, r := range batch {
		if r.group != nil && r.group.err != nil && r.err == nil {
			r.err = fmt.Errorf("live: record aborted with its group: %w", r.group.err)
		}
	}

	// Phase 2: one journal record group for the whole batch
	// (write-ahead: nothing mutates writer state before it is durable).
	if len(staged) > 0 && s.journal != nil {
		var jstart time.Time
		if s.appendHist != nil {
			jstart = time.Now()
		}
		fatal, err := s.journal.appendGroup(ms)
		if err != nil {
			if fatal {
				// The journal can no longer be appended to safely;
				// poison the store rather than risk replaying a
				// different history than the one served.
				s.ioErr = err
				slog.Error("live: journal unrecoverable; store no longer accepts writes", "err", err)
			}
			s.mu.Unlock()
			for _, r := range batch {
				if r.err == nil {
					r.err = err
				}
				r.done <- applyResult{err: r.err}
			}
			return
		}
		if s.appendHist != nil {
			s.appendHist.Observe(time.Since(jstart).Seconds())
		}
		// Nudge the background compactor when this group crossed its
		// fold trigger — a non-blocking watermark signal, so folds
		// start promptly under write bursts without a tight poll
		// interval.
		if s.wmCh != nil && s.journal.records >= s.wmRecords {
			select {
			case s.wmCh <- struct{}{}:
			default:
			}
		}
	}

	// Phase 3: fold the batch into the writer state and publish one
	// snapshot at the final epoch, its overlay view pre-derived from
	// the previous epoch's view where possible.
	epoch0 := s.baseEpoch + uint64(len(s.log))
	if len(staged) > 0 {
		for i, r := range staged {
			// Organic term adoption: a replicated record minted under a
			// newer term raises the local term the moment it commits —
			// it is already journaled above, so the adoption is durable
			// by construction. Its epoch is the new lineage's first.
			if r.m.Term > s.term.Load() {
				s.term.Store(r.m.Term)
				s.termStart.Store(epoch0 + uint64(i))
			}
			s.stateApply(r.m)
		}
		prev := s.snap.Load()
		next := s.buildSnapshotLocked()
		s.presetView(prev, next, ms)
		s.snap.Store(next)
		s.bumpWatch()
		s.commits.Add(1)
	}
	s.mu.Unlock()

	// Phase 4: instruments and futures, off the writer lock. The
	// snapshot is already published, so a mutator that wakes here and
	// immediately reads sees its own write.
	if len(staged) > 0 {
		if s.batchHist != nil {
			s.batchHist.Observe(float64(len(staged)))
		}
		if s.commitHist != nil {
			s.commitHist.Observe(time.Since(start).Seconds())
		}
	}
	for i, r := range staged {
		r.done <- applyResult{id: r.newID, epoch: epoch0 + uint64(i) + 1}
	}
	for _, r := range batch {
		if r.err != nil {
			r.done <- applyResult{err: r.err}
		}
	}
}

// presetView derives next's overlay view at commit time: prev's built
// view extended by the batch (O(|batch|)); a fold of the resident log
// over the base when prev sits at the base epoch (a chain root: the
// batch is the whole log) or prev's view at the depth guard; and left
// lazy when prev's view was never built — a write-only stretch
// shouldn't pay for views nobody reads. Caller holds mu; next is not
// yet published.
func (s *Store) presetView(prev, next *Snapshot, batch []Mutation) {
	root := prev.epoch == prev.baseEpoch
	if !root && !prev.viewReady.Load() {
		return
	}
	var start time.Time
	if s.overlayHist != nil {
		start = time.Now()
	}
	var view *OverlayView
	switch {
	case root:
		view = newOverlay(next.base, next.log[:next.epoch-next.baseEpoch], next.nodes, next.edges)
	case prev.view.depth >= maxChainDepth:
		// Periodic refold guard: reset the chain with a fold of the
		// resident log over the base.
		view = newOverlay(next.base, next.log[:next.epoch-next.baseEpoch], next.nodes, next.edges)
		s.refolds.Add(1)
	default:
		view = prev.view.extend(batch, next.nodes, next.edges)
	}
	if s.overlayHist != nil {
		s.overlayHist.Observe(time.Since(start).Seconds())
	}
	next.view = view
	next.viewOnce.Do(func() {}) // burn the once; View returns the preset
	next.viewReady.Store(true)
}

// batchShadow overlays the writer state with the staged effects of the
// current (not yet applied) batch prefix, so op k of a batch validates
// against the world as of op k−1 — exactly what it would have seen
// under the old one-op-one-commit path.
type batchShadow struct {
	s     *Store
	nodes int                 // add_node count staged this batch
	added map[uint64]float64  // edges added (or removed-then-re-added) this batch
	chgd  map[uint64]*float64 // pre-batch edges re-weighted (ptr) or removed (nil)
	gone  map[expertgraph.NodeID]struct{}
}

func (s *Store) newBatchShadow() *batchShadow { return &batchShadow{s: s} }

func (sh *batchShadow) numNodes() int { return sh.s.nNodes + sh.nodes }

func (sh *batchShadow) isRemoved(id expertgraph.NodeID) bool {
	if _, g := sh.gone[id]; g {
		return true
	}
	return sh.s.isRemoved(id)
}

func (sh *batchShadow) edgeWeight(u, v expertgraph.NodeID) (float64, bool) {
	k := edgeKey(u, v)
	if w, ok := sh.added[k]; ok {
		return w, true
	}
	if p, ok := sh.chgd[k]; ok {
		if p == nil {
			return 0, false
		}
		return *p, true
	}
	w, ok := sh.s.edgeSet[k]
	return w, ok
}

// stage folds one validated mutation's effects into the shadow.
func (sh *batchShadow) stage(m Mutation) {
	switch m.Op {
	case OpAddNode:
		sh.nodes++
	case OpAddEdge:
		if sh.added == nil {
			sh.added = make(map[uint64]float64)
		}
		sh.added[edgeKey(m.U, m.V)] = m.W
	case OpUpdateEdge:
		k := edgeKey(m.U, m.V)
		if _, ok := sh.added[k]; ok {
			sh.added[k] = m.W
			return
		}
		w := m.W
		if sh.chgd == nil {
			sh.chgd = make(map[uint64]*float64)
		}
		sh.chgd[k] = &w
	case OpRemoveEdge:
		sh.dropEdge(edgeKey(m.U, m.V))
	case OpRemoveNode:
		for _, e := range m.Edges {
			sh.dropEdge(edgeKey(m.Node, e.V))
		}
		if sh.gone == nil {
			sh.gone = make(map[expertgraph.NodeID]struct{})
		}
		sh.gone[m.Node] = struct{}{}
	}
}

func (sh *batchShadow) dropEdge(k uint64) {
	if _, ok := sh.added[k]; ok {
		// Added this batch: un-adding it suffices. If the same key was
		// also a pre-batch edge removed earlier in the batch, chgd[k]
		// stays nil and keeps masking it.
		delete(sh.added, k)
		return
	}
	if sh.chgd == nil {
		sh.chgd = make(map[uint64]*float64)
	}
	sh.chgd[k] = nil
}

// incidentEdges captures node's incident edges as of the staged batch
// prefix — the pre-batch snapshot view adjusted by the shadow — sorted
// by far endpoint so the journaled remove_node record (and therefore
// replay and repair) is deterministic.
func (sh *batchShadow) incidentEdges(node expertgraph.NodeID) []RemovedEdge {
	var out []RemovedEdge
	sn := sh.s.snap.Load()
	if int(node) < sn.NumNodes() {
		// Pre-batch node: walk the published view's adjacency, dropping
		// edges the batch removed and re-weighting ones it changed.
		// Keys in added are skipped here and picked up below (a
		// removed-then-re-added pre-batch edge lives there).
		sn.View().Neighbors(node, func(v expertgraph.NodeID, w float64) bool {
			k := edgeKey(node, v)
			if _, re := sh.added[k]; re {
				return true
			}
			if p, ok := sh.chgd[k]; ok {
				if p == nil {
					return true
				}
				out = append(out, RemovedEdge{V: v, W: *p})
				return true
			}
			out = append(out, RemovedEdge{V: v, W: w})
			return true
		})
	}
	for k, w := range sh.added {
		u, v := expertgraph.NodeID(k>>32), expertgraph.NodeID(uint32(k))
		switch node {
		case u:
			out = append(out, RemovedEdge{V: v, W: w})
		case v:
			out = append(out, RemovedEdge{V: u, W: w})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}
