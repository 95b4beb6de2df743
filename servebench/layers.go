package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/obs"
	"authteam/internal/oracle"
	"authteam/internal/pll"
	"authteam/internal/transform"
)

// metricDef is one reported metric. The per-layer names follow the
// modules: server, core, team, pll (with oracle), transform, live and
// repl. A layer with no work on a workload reports 0.
type metricDef struct{ name, unit string }

// layerDefs are the per-layer metrics of BENCHMARK.json: every traced
// run prints them in its JSON result.
var layerDefs = []metricDef{
	{"server.overhead_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"team.score_ms", "ms"},
	{"pll.dist_calls", "count"},
	{"pll.dist_ns", "ns"},
	{"pll.build_s", "s"},
	{"transform.fit_ms", "ms"},
	{"live.refolds_per_kepoch", "count"},
	{"live.apply_ms", "ms"},
	{"live.ops_per_commit", "count"},
	{"live.fold_ms", "ms"},
	{"live.folds", "count"},
	{"live.journal_bytes_per_op", "bytes"},
	{"repl.tail_ms", "ms"},
	{"repl.records_per_tail", "count"},
}

// readWriteDefs are the metrics of the discover-under-writes path, which
// only read-write exercises. That workload is not in BENCHMARK.json, so
// these are printed in the report, not in the JSON result.
var readWriteDefs = []metricDef{
	{"server.cache_hit_ratio", "fraction"},
	{"pll.repair_ms", "ms"},
	{"pll.repair_visits", "count"},
	{"pll.repair_ratio", "fraction"},
	{"transform.refit_ms", "ms"},
	{"live.view_ms", "ms"},
}

func lapP50(m map[string]*samples, stage string) float64 {
	if s := m[stage]; s != nil {
		return s.p50()
	}
	return 0
}

// layerMetrics derives the per-layer metrics of a traced phase: laps
// from the trace headers, counters as /stats and /metrics deltas over
// the timed phase, and the in-process replays.
func layerMetrics(ph *phase, before, after counters, rp replays, fsrc *tracedSource) map[string]float64 {
	b, a := before.stats.Live, after.stats.Live
	epochs := float64(a.Epoch - b.Epoch)
	repairs := float64(a.IncrementalRepairs - b.IncrementalRepairs)
	rebuilds := float64(a.FullRebuilds - b.FullRebuilds)
	visits := after.metrics["authteam_index_repair_visits_total"] - before.metrics["authteam_index_repair_visits_total"]
	m := map[string]float64{
		"server.overhead_ms":        ph.overhead.p50(),
		"server.cache_hit_ratio":    ratio(float64(ph.cached), float64(len(ph.discovers))),
		"core.search_ms":            lapP50(ph.laps, "search"),
		"core.merge_ms":             lapP50(ph.laps, "merge"),
		"team.score_ms":             lapP50(ph.laps, "score"),
		"pll.dist_calls":            rp.distCalls,
		"pll.dist_ns":               rp.distNS,
		"pll.build_s":               rp.buildS,
		"transform.fit_ms":          rp.fitMS.p50(),
		"pll.repair_ms":             lapP50(ph.freshLaps, "index"),
		"pll.repair_visits":         ratio(visits, repairs),
		"pll.repair_ratio":          ratio(repairs, repairs+rebuilds),
		"transform.refit_ms":        lapP50(ph.freshLaps, "fit"),
		"live.view_ms":              lapP50(ph.freshLaps, "resolve"),
		"live.refolds_per_kepoch":   ratio(1000*float64(a.OverlayRefolds-b.OverlayRefolds), epochs),
		"live.apply_ms":             rp.applyMS.p50(),
		"live.ops_per_commit":       ratio(epochs, float64(a.Commits-b.Commits)),
		"live.fold_ms":              rp.foldMS.p50(),
		"live.folds":                float64(a.Compactions - b.Compactions),
		"live.journal_bytes_per_op": rp.journalBytesPerOp,
	}
	if fsrc != nil {
		fsrc.mu.Lock()
		m["repl.tail_ms"] = fsrc.tailMS.p50()
		m["repl.records_per_tail"] = ratio(float64(fsrc.records), float64(len(fsrc.tailMS)))
		fsrc.mu.Unlock()
	}
	return m
}

// replays holds what the traced run measures by calling layers
// directly, outside the server.
type replays struct {
	distCalls, distNS, buildS float64
	fitMS, applyMS, foldMS    samples
	journalBytesPerOp         float64
}

// countingOracle counts Dist calls. The replay runs the root scan on
// one goroutine, so a plain counter suffices and adds no contention to
// the per-call cost it helps measure.
type countingOracle struct {
	o     oracle.Oracle
	calls int64
}

func (c *countingOracle) Dist(u, v expertgraph.NodeID) float64 {
	c.calls++
	return c.o.Dist(u, v)
}

// fitReps is how many times buildCover fits the transform; one fit
// takes microseconds, so a single call would mostly measure noise.
const fitReps = 25

// buildCover times transform.Fit of the default γ and λ on the base
// graph (fitReps calls) and one pll.BuildWithOptions of the G′ cover
// with the server's worker count (NumCPU).
func buildCover(c *corpus, rec *recorder, rp *replays) (*pll.Index, *transform.Params, error) {
	var p *transform.Params
	for range fitReps {
		start := time.Now()
		var err error
		if p, err = transform.Fit(c.g, defaultGamma, defaultLambda, transform.Options{Normalize: true}); err != nil {
			return nil, nil, err
		}
		end := time.Now()
		rec.record(0, 0, "transform.fit", "transform", start, end)
		rp.fitMS = append(rp.fitMS, ms(end.Sub(start)))
	}
	start := time.Now()
	ix := pll.BuildWithOptions(c.g, pll.Options{Weight: p.EdgeWeight(), Workers: runtime.NumCPU()})
	end := time.Now()
	rec.record(0, 0, "pll.build", "pll", start, end)
	rp.buildS = end.Sub(start).Seconds()
	return ix, p, nil
}

// distReplay replays discover requests in-process through
// core.TopKParallelStaged over the covers, counting Dist calls. It
// returns Dist calls per discover and the search span per call.
func distReplay(c *corpus, reqs []discoverReq, gix *pll.Index, p *transform.Params, rec *recorder) (float64, float64, error) {
	raw := pll.BuildWithOptions(c.g, pll.Options{Workers: runtime.NumCPU()})
	var calls int64
	var search time.Duration
	for _, r := range reqs {
		ix := gix
		if r.Method == "cc" {
			ix = raw
		}
		project := make([]expertgraph.SkillID, len(r.Skills))
		for i, s := range r.Skills {
			project[i], _ = c.g.SkillID(s)
		}
		slices.Sort(project)
		o := &countingOracle{o: oracle.NewPLL(ix)}
		start := time.Now()
		var searched time.Time
		_, err := core.TopKParallelStaged(p, methodOf[r.Method], project, r.K, 1, o, func(stage string) {
			if stage == "search" {
				searched = time.Now()
			}
		})
		if err != nil {
			return 0, 0, fmt.Errorf("replay %v: %w", r, err)
		}
		id := rec.record(0, 0, "core.replay", "core", start, time.Now())
		rec.record(id, id, "core.replay.search", "core", start, searched)
		calls += o.calls
		search += searched.Sub(start)
	}
	return ratio(float64(calls), float64(len(reqs))), ratio(float64(search.Nanoseconds()), float64(calls)), nil
}

// replayCap bounds the in-process write replay: enough writes for
// several folds at the 8192-record trigger.
const replayCap = 60000

// applyReplay replays the writes a traced phase sent (at most
// replayCap) straight into a store opened like the leader's (journal,
// fsync off, the default compactor), timing each mutator call and each
// fold. The writers' lists are interleaved one write at a time. It also
// reports the journal's bytes per record, read when the journal held
// the most records: a fold truncates the journal, so a reading taken
// just after one says little.
func applyReplay(c *corpus, lists [][]mutation, counts []int, dir string, rec *recorder, rp *replays) error {
	st, err := live.Open(c.g, live.Config{JournalPath: filepath.Join(dir, "replay.wal"), Metrics: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer st.Close()
	var mu sync.Mutex
	var folds samples
	comp, err := st.StartCompactor(live.CompactorConfig{
		Interval: compactPoll,
		OnFold: func(_ live.CompactStats, took time.Duration, err error) {
			if err == nil {
				mu.Lock()
				folds.add(took)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		return err
	}
	var apply samples
	var records uint64
	added := make([][]expertgraph.NodeID, len(lists))
	next := make([]int, len(lists))
	for more := true; more && len(apply) < replayCap; {
		more = false
		for w, list := range lists {
			i := next[w]
			if i >= counts[w] || i >= len(list) {
				continue
			}
			more = true
			next[w]++
			start := time.Now()
			_, err := list[i].apply(st, &added[w])
			end := time.Now()
			if err != nil {
				comp.Stop()
				return fmt.Errorf("replay writer %d write %d (%s): %w", w, i, list[i].kind, err)
			}
			rec.record(0, 0, "live."+list[i].kind.String(), "live", start, end)
			apply = append(apply, ms(end.Sub(start)))
			if n, bytes := st.JournalStats(); n > records {
				records, rp.journalBytesPerOp = n, float64(bytes)/float64(n)
			}
		}
	}
	comp.Stop()
	mu.Lock()
	defer mu.Unlock()
	rp.applyMS, rp.foldMS = apply, folds
	return nil
}
