package core

import (
	"slices"
	"sync"

	"authteam/internal/expertgraph"
	"authteam/internal/oracle"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// Parallel discovery. Algorithm 1's root loop is embarrassingly
// parallel: every root's greedy evaluation is independent, and the
// 2-hop cover index is safe for concurrent readers. TopKParallel
// shards the roots over workers, each with its own Discoverer (its
// distance probe and path-reconstruction workspace are per-goroutine
// state), then merges the per-shard top-k lists. Each shard's teams
// carry the greedy cost their root scored, so the merge orders the
// pool by the same (cost, root) key the sequential scan sorts by, and
// applies the same deduplication: the result equals TopK with the same
// oracle. A team in the sequential top k is preceded, within its own
// shard, by no more distinct teams than globally, so its shard returns
// it; any other pooled team either ranks below the k-th or repeats an
// earlier one.

// TopKParallel runs TopK with the root scan sharded over workers
// goroutines (values < 2 fall back to the sequential path). The dist
// oracle must be safe for concurrent use when workers > 1 — the PLL
// oracle is; per-root Dijkstra oracles are created per worker when
// dist is nil.
func TopKParallel(p *transform.Params, m Method, project []expertgraph.SkillID,
	k, workers int, dist oracle.Oracle) ([]*team.Team, error) {
	return TopKParallelStaged(p, m, project, k, workers, dist, nil)
}

// TopKParallelStaged is TopKParallel with a stage hook for pipeline
// tracing: when lap is non-nil it is invoked at the two phase
// boundaries — "search" once the sharded root scan has joined, and
// "merge" once the shard results have been ranked and deduplicated.
// The hook runs on the calling goroutine.
func TopKParallelStaged(p *transform.Params, m Method, project []expertgraph.SkillID,
	k, workers int, dist oracle.Oracle, lap func(stage string)) ([]*team.Team, error) {

	if k <= 0 {
		return nil, ErrBadK
	}
	if len(project) == 0 {
		return nil, ErrEmptyProject
	}
	newDiscoverer := func(roots []expertgraph.NodeID) *Discoverer {
		return NewDiscoverer(p, m, WithRoots(roots), WithOracle(dist))
	}
	g := p.Graph()
	n := g.NumNodes()
	if workers < 2 || n < 2*workers {
		teams, err := newDiscoverer(nil).TopK(project, k)
		if lap != nil {
			lap("search")
			lap("merge") // sequential TopK merges as it scans; the stage is empty
		}
		return teams, err
	}

	// Shard roots contiguously.
	shards := make([][]expertgraph.NodeID, workers)
	all := allNodes(g)
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo < hi {
			shards[w] = all[lo:hi]
		}
	}

	type shardOut struct {
		teams []rankedTeam
		err   error
	}
	outs := make([]shardOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			teams, err := newDiscoverer(shards[w]).topK(project, k)
			outs[w] = shardOut{teams: teams, err: err}
		}(w)
	}
	wg.Wait()
	if lap != nil {
		lap("search")
	}

	var pool []rankedTeam
	anySuccess := false
	var firstErr error
	for _, out := range outs {
		switch out.err {
		case nil:
			anySuccess = true
			pool = append(pool, out.teams...)
		default:
			if firstErr == nil {
				firstErr = out.err
			}
		}
	}
	if !anySuccess {
		return nil, firstErr
	}
	slices.SortFunc(pool, func(a, b rankedTeam) int {
		return byCostRoot(a.cost, a.team.Root, b.cost, b.team.Root)
	})
	seen := make(map[string]bool)
	merged := make([]*team.Team, 0, k)
	for _, r := range pool {
		sig := signature(r.team)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		merged = append(merged, r.team)
		if len(merged) == k {
			break
		}
	}
	if lap != nil {
		lap("merge")
	}
	return merged, nil
}
