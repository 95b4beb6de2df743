// Index construction and label-compression benchmark: the evidence
// for the sharded parallel 2-hop build and the packed label encoding.
//
// BenchmarkIndexRebuildWorkers builds the same weighted index at 1, 2
// and 4 workers (each build is bit-identical to the sequential one by
// construction — the differential tests in internal/pll pin that) and
// emits one BENCH_index.json line with the rebuild walls and the
// 4-worker speedup, the 2-worker build's rank blocks and the ranks it
// redid serially because an earlier rank of their block covered their
// candidates (the contamination the block sizes follow), the packed vs
// unpacked label bytes with the shrink percentage, and the discover
// p50 over the packed index.
package authteam_test

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"authteam/internal/core"
	"authteam/internal/oracle"
	"authteam/internal/pll"
	"authteam/internal/stats"
)

func emitBenchIndex(name string, fields map[string]any) {
	fields["bench"] = name
	buf, _ := json.Marshal(fields)
	fmt.Printf("BENCH_index.json %s\n", buf)
}

func BenchmarkIndexRebuildWorkers(b *testing.B) {
	benchSetup(b)
	weight := benchP.EdgeWeight()

	// Best-of-reps wall per worker count: the minimum is the least
	// noisy estimator of the true cost on a shared CI machine.
	reps := b.N
	if reps < 3 {
		reps = 3
	}
	var built *pll.Index
	blocks, redone := 0, 0 // of the last build
	wall := func(workers int) float64 {
		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			blocks, redone = 0, 0
			t0 := time.Now()
			built = pll.BuildWithOptions(benchG, pll.Options{Weight: weight, Workers: workers,
				OnBlock: func(_, _, blockRedone int, _ time.Duration) {
					blocks++
					redone += blockRedone
				}})
			if ms := float64(time.Since(t0)) / float64(time.Millisecond); ms < best {
				best = ms
			}
		}
		return best
	}

	b.ResetTimer()
	w1 := wall(1)
	w2 := wall(2)
	blocks2, redone2 := blocks, redone
	w4 := wall(4)
	b.StopTimer()

	speedup := 0.0
	if w4 > 0 {
		speedup = w1 / w4
	}
	st := built.Stats()
	shrink := 0.0
	if st.UnpackedBytes > 0 {
		shrink = 100 * (1 - float64(st.PackedBytes)/float64(st.UnpackedBytes))
	}

	// Discover p50 over the packed index: the hot path the compressed
	// labels must not regress.
	idx := oracle.NewPLL(built)
	project := benchProj[4]
	lat := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		d := core.NewDiscoverer(benchP, core.SACACC, core.WithOracle(idx))
		t0 := time.Now()
		if _, err := d.BestTeam(project); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
	}
	p50 := stats.Percentiles(lat, 50)[0]

	b.ReportMetric(w1, "rebuild-1w-ms")
	b.ReportMetric(w4, "rebuild-4w-ms")
	b.ReportMetric(speedup, "speedup-4w")
	b.ReportMetric(shrink, "label-shrink-%")
	emitBenchIndex("index_rebuild", map[string]any{
		"nodes":            benchG.NumNodes(),
		"edges":            benchG.NumEdges(),
		"cpus":             runtime.NumCPU(),
		"rebuild_ms_w1":    w1,
		"rebuild_ms_w2":    w2,
		"rebuild_ms_w4":    w4,
		"speedup_4w":       speedup,
		"blocks_w2":        blocks2,
		"redone_ranks_w2":  redone2,
		"label_entries":    st.TotalEntries,
		"packed_bytes":     st.PackedBytes,
		"unpacked_bytes":   st.UnpackedBytes,
		"label_shrink_pct": shrink,
		"discover_p50_ms":  p50,
	})
}
