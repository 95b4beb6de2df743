// Live-mutation benchmarks: the perf baseline for the internal/live
// subsystem. Two numbers matter for an online serving daemon —
//
//	BenchmarkLiveMutationThroughput   sustained edges/sec applied
//	                                  through the store (journal off)
//	BenchmarkLiveDiscoverUnderWrites  /v1/discover latency while one
//	                                  writer streams edge insertions
//
// Each benchmark also emits a one-line BENCH_live.json record so CI
// logs can be scraped into a dashboard without parsing Go bench output.
package authteam_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/server"
	"authteam/internal/stats"
)

func emitBenchLive(name string, fields map[string]any) {
	fields["bench"] = name
	buf, _ := json.Marshal(fields)
	fmt.Printf("BENCH_live.json %s\n", buf)
}

// freshPairs returns a shuffled list of distinct node pairs absent from
// g, no pair appearing twice in either orientation, so benchmark loops
// insert guaranteed-new edges without retry storms.
func freshPairs(g *expertgraph.Graph, rng *rand.Rand, limit int) [][2]expertgraph.NodeID {
	n := g.NumNodes()
	if absent := n*(n-1)/2 - g.NumEdges(); limit > absent {
		// Drawing more distinct pairs than exist would never return.
		panic(fmt.Sprintf("freshPairs: %d pairs requested, the graph has %d absent pairs", limit, absent))
	}
	pairs := make([][2]expertgraph.NodeID, 0, limit)
	drawn := make(map[[2]expertgraph.NodeID]bool, limit)
	for len(pairs) < limit {
		u := expertgraph.NodeID(rng.Intn(n))
		v := expertgraph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if _, exists := g.EdgeWeight(u, v); exists {
			continue
		}
		key := [2]expertgraph.NodeID{min(u, v), max(u, v)}
		if drawn[key] {
			continue
		}
		drawn[key] = true
		pairs = append(pairs, [2]expertgraph.NodeID{u, v})
	}
	return pairs
}

func BenchmarkLiveMutationThroughput(b *testing.B) {
	benchSetup(b)
	rng := rand.New(rand.NewSource(99))
	// Cycle through stores: each absorbs the perStore pairs of one
	// list, which holds no pair twice in either orientation, so every
	// insertion into a store is new and applied counts b.N.
	const perStore = 50_000
	pairs := freshPairs(benchG, rng, perStore)
	var st *live.Store
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	applied := 0
	for i := 0; i < b.N; i++ {
		if i%perStore == 0 {
			if st != nil {
				st.Close()
			}
			var err error
			if st, err = live.Open(benchG, live.Config{}); err != nil {
				b.Fatal(err)
			}
		}
		pr := pairs[i%perStore]
		if _, err := st.AddCollaboration(pr[0], pr[1], 0.05+0.9*rng.Float64()); err == nil {
			applied++
		}
	}
	b.StopTimer()
	st.Close()
	perSec := float64(b.N) / time.Since(start).Seconds()
	b.ReportMetric(perSec, "edges/sec")
	emitBenchLive("mutation_throughput", map[string]any{
		"edges":         b.N,
		"applied":       applied,
		"edges_per_sec": perSec,
	})
}

func BenchmarkLiveDiscoverUnderWrites(b *testing.B) {
	benchSetup(b)
	srv, err := server.New(server.Config{
		Graph:          benchG,
		NoPersistIndex: true,
		Workers:        4,
		WarmIndex:      true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One writer streams insertions for the whole measurement window.
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(100))
		pairs := freshPairs(benchG, rng, 200_000)
		for i := 0; !stop.Load() && i < len(pairs); i++ {
			pr := pairs[i]
			_, _ = srv.Store().AddCollaboration(pr[0], pr[1], 0.05+0.9*rng.Float64())
			time.Sleep(500 * time.Microsecond) // ~2k mutations/sec offered
		}
	}()

	skills := make([]string, 0, 4)
	for _, id := range benchProj[4] {
		skills = append(skills, benchG.SkillName(id))
	}
	body, _ := json.Marshal(map[string]any{"skills": skills, "method": "sa-ca-cc"})

	lat := make([]float64, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(string(body)))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("discover status %d", resp.StatusCode)
		}
		resp.Body.Close()
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
	}
	b.StopTimer()
	stop.Store(true)
	<-writerDone

	p50 := stats.Percentile(lat, 50)
	p99 := stats.Percentile(lat, 99)
	b.ReportMetric(p50, "p50-ms")
	b.ReportMetric(p99, "p99-ms")
	emitBenchLive("discover_under_writes", map[string]any{
		"queries":     b.N,
		"p50_ms":      p50,
		"p99_ms":      p99,
		"final_epoch": srv.Store().Epoch(),
	})
}
