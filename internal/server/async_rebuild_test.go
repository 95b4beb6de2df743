package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
)

// TestConcurrentQueriesDuringAsyncRebuild is the race soak for the
// async index rebuild: discover traffic keeps hammering the server
// while out-of-bounds edge insertions force full rebuilds off the
// request path, so the race shard sees real concurrent readers
// (overlay views, Dijkstra fallback, cache, and root scans sharded
// over Workers = 4) alongside the rebuild for its whole lifetime.
func TestConcurrentQueriesDuringAsyncRebuild(t *testing.T) {
	c := dblp.Synthesize(dblp.SynthConfig{Seed: 5, Authors: 400})
	g, _, err := dblp.BuildGraph(c, dblp.GraphOptions{LargestComponent: true})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.Workers = 4
		cfg.WarmIndex = true
	})
	warm := s.node.IndexStats().FullRebuilds

	// A query the corpus can always answer: the first two skills of
	// node 0 (it holds them, so every epoch has holders).
	var names []string
	for _, sk := range g.Skills(0) {
		names = append(names, `"`+g.SkillName(sk)+`"`)
		if len(names) == 2 {
			break
		}
	}
	body := `{"skills": [` + strings.Join(names, ", ") + `], "method": "sa-ca-cc", "k": 2}`

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("discover during rebuild: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("discover during rebuild: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Rebuild storm: each insertion's weight lies far outside the
	// covering bounds, expanding them — the one delta class repair
	// cannot absorb — so the next discover kicks an async rebuild
	// while the query goroutines keep reading.
	n := expertgraph.NodeID(g.NumNodes())
	added := 0
	for i := 0; added < 5 && int(i) < g.NumNodes()-60; i++ {
		u, v := expertgraph.NodeID(i), expertgraph.NodeID(i)+57
		if v >= n {
			break
		}
		if _, err := s.Store().AddCollaboration(u, v, 10.0+float64(added)); err != nil {
			continue // edge already present; try the next pair
		}
		added++
		time.Sleep(30 * time.Millisecond)
	}
	if added == 0 {
		t.Fatal("no out-of-bounds edge could be inserted")
	}
	close(stop)
	wg.Wait()

	// Drain in-flight rebuilds, then confirm the soak exercised them.
	deadline := time.Now().Add(10 * time.Second)
	for s.node.IndexStats().PendingRebuild && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	ixs := s.node.IndexStats()
	if ixs.PendingRebuild {
		t.Fatal("async rebuild still pending after drain deadline")
	}
	if ixs.FullRebuilds == warm {
		t.Errorf("no rebuilds triggered (still %d); the soak exercised nothing", warm)
	}
}
