// Write-path benchmarks: the perf acceptance for group commit and
// chained overlay views.
//
//	BenchmarkWritePath            journaled (fsync-on-commit) mutation
//	                              throughput at 1, 4 and 8 concurrent
//	                              writers — group commit amortizes the
//	                              fsync and the epoch publish across a
//	                              batch, so multi-writer throughput must
//	                              exceed the single-writer baseline
//	BenchmarkChainedOverlayStream p50 of (apply + View) per op across a
//	                              long mutation stream with the view
//	                              read back every epoch — chained views
//	                              derive epoch E+1's overlay from E's in
//	                              O(batch), so the tail of the stream
//	                              must cost the same as the head (run
//	                              with -benchtime 10000x for the
//	                              10k-mutation acceptance stream)
//
// Each run emits a one-line BENCH_write.json record so CI logs can be
// scraped into a dashboard without parsing Go bench output.
package authteam_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/stats"
)

func emitBenchWrite(name string, fields map[string]any) {
	fields["bench"] = name
	buf, _ := json.Marshal(fields)
	fmt.Printf("BENCH_write.json %s\n", buf)
}

func BenchmarkWritePath(b *testing.B) {
	benchSetup(b)
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			st, err := live.Open(benchG, live.Config{
				JournalPath: filepath.Join(b.TempDir(), "wal.jsonl"),
				Sync:        true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()

			// Disjoint fresh pairs per writer: every op succeeds (a
			// rejected one fails the benchmark), so the measured number
			// is pure pipeline throughput, not rejection handling.
			rng := rand.New(rand.NewSource(int64(200 + writers)))
			pairs := freshPairs(benchG, rng, b.N+writers)
			var wg sync.WaitGroup
			errCh := make(chan error, writers)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < b.N; i += writers {
						pr := pairs[i]
						if _, err := st.AddCollaboration(pr[0], pr[1], 0.5); err != nil {
							errCh <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
			perSec := float64(b.N) / elapsed.Seconds()
			commits := st.Commits()
			opsPerCommit := 0.0
			if commits > 0 {
				opsPerCommit = float64(st.Epoch()) / float64(commits)
			}
			b.ReportMetric(perSec, "ops/sec")
			b.ReportMetric(opsPerCommit, "ops/commit")
			emitBenchWrite("write_path", map[string]any{
				"writers":        writers,
				"ops":            b.N,
				"ops_per_sec":    perSec,
				"commits":        commits,
				"ops_per_commit": opsPerCommit,
				"final_epoch":    st.Epoch(),
			})
		})
	}
}

func BenchmarkChainedOverlayStream(b *testing.B) {
	benchSetup(b)
	st, err := live.Open(benchG, live.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(210))
	pairs := freshPairs(benchG, rng, b.N+1)
	lat := make([]float64, 0, b.N)
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i]
		t0 := time.Now()
		if _, err := st.AddCollaboration(pr[0], pr[1], 0.5); err != nil {
			b.Fatal(err)
		}
		// Reading the view back every epoch is what makes the chain
		// engage: the committer presets E+1's view by patching E's.
		gv := st.Snapshot().View()
		lat = append(lat, float64(time.Since(t0))/float64(time.Microsecond))
		sink += gv.Degree(expertgraph.NodeID(int(pr[0])))
	}
	b.StopTimer()
	_ = sink

	// Flatness: with views refolded from scratch each epoch, the tail
	// of the stream would cost O(log length) more than the head; with
	// chained views both quartiles must sit at the same O(1) patch
	// cost.
	q := len(lat) / 4
	headP50, tailP50 := 0.0, 0.0
	if q > 0 {
		headP50 = stats.Percentile(lat[:q], 50)
		tailP50 = stats.Percentile(lat[len(lat)-q:], 50)
	}
	p50 := stats.Percentile(lat, 50)
	b.ReportMetric(p50, "p50-us")
	b.ReportMetric(tailP50, "tail-p50-us")
	emitBenchWrite("chained_overlay_stream", map[string]any{
		"ops":         b.N,
		"p50_us":      p50,
		"head_p50_us": headP50,
		"tail_p50_us": tailP50,
		"chain_depth": st.ChainDepth(),
		"refolds":     st.Refolds(),
		"final_epoch": st.Epoch(),
	})
}
