package pll

import (
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
)

// Parallel index construction.
//
// The sequential sweep processes landmarks in rank order, each pruned
// Dijkstra pruning against every label committed by lower ranks. That
// dependency chain looks serial, but pruning only ever *shrinks* work:
// a Dijkstra pruned against a rank prefix visits a superset of the
// nodes it would visit pruned against the full lower-rank label set,
// and every node it settles without being prefix-pruned is settled at
// its exact distance (a settle inflated by a pruned-away shortest path
// is always itself prefix-pruned — the first pruned vertex on that
// path hands its covering hub to the whole suffix).
//
// So landmarks are processed in rank blocks [lo, hi), every sweep
// walking the same flat weighted adjacency (see flatten):
//
//   - Phase A (parallel): each rank r in the block runs its pruned
//     Dijkstra against the frozen labels committed by ranks < lo,
//     recording the surviving (node, dist) pairs as candidates. All
//     candidate distances are exact, and the candidate set of rank r
//     is a superset of its sequential label entries.
//   - Phase B (serial, cheap): ranks commit in ascending order. Rank r
//     first checks whether any of its candidates is covered by a label
//     entry committed by an in-block rank in [lo, r) — the exact float
//     comparison the sequential sweep would apply at that settle. If
//     none is (the common case: in-block landmarks rarely cover each
//     other's Dijkstra balls), the sequential sweep for r would have
//     made decision-for-decision the same prunes as Phase A did, so the
//     candidates ARE its label entries and commit as-is. Otherwise the
//     rank is contaminated — sequential pruning would also have blocked
//     expansion at the covered nodes, reshaping the downstream settles
//     in ways a filter cannot replay — and the rank falls back to a
//     serial prunedSweep against the now-complete labels below r,
//     reproducing the sequential entries exactly.
//
// The result is bit-identical to the sequential build: same label
// sets, same stored distances (differential-tested across graphs,
// weights and worker counts). Block sizes follow contamination: a
// block that redid any rank halves the next block (down to 1, which is
// the sequential sweep), and a clean block doubles it, up to
// max(8, 2·workers). A contaminated rank pays for two sweeps, its
// wasted Phase A one and its serial redo, and contamination is densest
// among the early high-degree landmarks, which do the bulk of the
// pruning: there the blocks stay small until the committed labels
// prune well enough for wide blocks to come back clean. The cap bounds
// both the extra candidate work the relaxed prefix pruning admits and
// the odds of contamination in the long tail.

// parallelLabels is the Options.Workers > 1 path of BuildWithOptions:
// it returns the same labels as the sequential sweep over adj.
func parallelLabels(adj *adjacency, nodeAt []expertgraph.NodeID, opt Options) [][]labelEntry {
	n := len(nodeAt)
	workers := opt.Workers
	if workers > n {
		workers = n
	}
	labels := make([][]labelEntry, n)

	scratch := make([]*buildScratch, workers)
	for i := range scratch {
		scratch[i] = newBuildScratch(n)
	}

	// Block cap: bigger blocks amortize the per-block barrier, smaller
	// ones shrink the in-block window in which Phase A candidates can
	// be covered by fresh commits; 2·workers keeps every worker busy
	// per block. At 2 workers the synthetic DBLP covers (γ=0.6 G′)
	// redo 77 of 1172 ranks in 204 blocks and 263 of 9841 in 1395,
	// against 117 in 149 and 382 in 1233 with blocks that only grew.
	maxBlock := 2 * workers
	if maxBlock < 8 {
		maxBlock = 8
	}
	cands := make([][]rankCandidate, maxBlock)

	var next atomic.Int64
	var wg sync.WaitGroup
	lo, blockSize := 0, 1
	for lo < n {
		hi := min(lo+blockSize, n)
		start := time.Now()

		// Phase A: per-rank candidate sweeps against the committed
		// prefix. Workers pull ranks off a shared counter; labels are
		// frozen for the whole phase (commits happen only in Phase B),
		// so reads need no locking.
		next.Store(int64(lo))
		spawn := workers
		if spawn > hi-lo {
			spawn = hi - lo
		}
		wg.Add(spawn)
		for w := 0; w < spawn; w++ {
			go func(sc *buildScratch) {
				defer wg.Done()
				for {
					r := int(next.Add(1)) - 1
					if r >= hi {
						return
					}
					cands[r-lo] = candidateSweep(adj, labels, nodeAt[r], sc, cands[r-lo][:0])
				}
			}(scratch[w])
		}
		wg.Wait()

		// Phase B: serial in-rank-order commit. For rank r, a candidate
		// already passed the prefix (< lo) prune in Phase A; if no
		// candidate is covered by an entry committed by an in-block rank
		// in [lo, r) — measured through the landmark's own committed
		// label, exactly the sequential prune test — the sequential
		// sweep for r behaves identically to Phase A's and the
		// candidates commit verbatim. A covered candidate contaminates
		// the whole rank (sequential would have blocked expansion
		// there), so the rank re-runs serially against the complete
		// labels below r.
		redone := 0
		hub := scratch[0].hubDist
		for r := lo; r < hi; r++ {
			lm := nodeAt[r]
			cs := cands[r-lo]
			for _, e := range labels[lm] {
				hub[e.rank] = e.dist
			}
			clean := true
		detect:
			for _, cd := range cs {
				l := labels[cd.u]
				// In-block committed entries sit at the sorted tail.
				for i := len(l) - 1; i >= 0 && l[i].rank >= int32(lo); i-- {
					if hub[l[i].rank]+l[i].dist <= cd.d {
						clean = false
						break detect
					}
				}
			}
			for _, e := range labels[lm] {
				hub[e.rank] = infinity
			}
			if clean {
				for _, cd := range cs {
					labels[cd.u] = append(labels[cd.u], labelEntry{rank: int32(r), dist: cd.d})
				}
			} else {
				prunedSweep(adj, labels, lm, int32(r), scratch[0])
				redone++
			}
		}

		if opt.OnBlock != nil {
			opt.OnBlock(lo, hi, redone, time.Since(start))
		}
		lo = hi
		if redone > 0 {
			blockSize = max(1, blockSize/2)
		} else {
			blockSize = min(maxBlock, 2*blockSize)
		}
	}
	return labels
}
