package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"authteam/internal/expertgraph"
)

func patchJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeMutation(t *testing.T, data []byte) MutationResponse {
	t.Helper()
	var out MutationResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return out
}

func TestMutationEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Add a node.
	status, data := postJSON(t, ts.URL+"/v1/graph/nodes",
		`{"name": "frank", "authority": 20, "skills": ["analytics", "golang"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add node: %d %s", status, data)
	}
	add := decodeMutation(t, data)
	if add.Epoch != 1 || add.ID == nil || int(*add.ID) != 5 || add.Nodes != 6 {
		t.Fatalf("add node response: %+v", add)
	}

	// Wire it in.
	status, data = postJSON(t, ts.URL+"/v1/graph/edges",
		fmt.Sprintf(`{"u": %d, "v": 3, "w": 0.25}`, *add.ID))
	if status != http.StatusCreated {
		t.Fatalf("add edge: %d %s", status, data)
	}
	edge := decodeMutation(t, data)
	if edge.Epoch != 2 || edge.Edges != 6 {
		t.Fatalf("add edge response: %+v", edge)
	}

	// Update authority and grant a skill.
	status, data = patchJSON(t, ts.URL+fmt.Sprintf("/v1/graph/nodes/%d", *add.ID),
		`{"authority": 31, "add_skills": ["matrix"]}`)
	if status != http.StatusOK {
		t.Fatalf("patch node: %d %s", status, data)
	}
	if upd := decodeMutation(t, data); upd.Epoch != 3 {
		t.Fatalf("patch response: %+v", upd)
	}

	// The new expert is immediately discoverable (read-your-writes).
	status, data = postJSON(t, ts.URL+"/v1/discover", `{"skills": ["golang"]}`)
	if status != http.StatusOK {
		t.Fatalf("discover: %d %s", status, data)
	}
	out := decodeDiscover(t, data)
	if out.Epoch != 3 {
		t.Errorf("discover epoch %d, want 3", out.Epoch)
	}
	if len(out.Teams) == 0 || out.Teams[0].Members[0].Name != "frank" {
		t.Errorf("expected frank, got %+v", out.Teams)
	}
	if out.Teams[0].Members[0].Authority != 31 {
		t.Errorf("patched authority not visible: %+v", out.Teams[0].Members[0])
	}

	// Error mapping.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/graph/nodes", `{"name": "", "authority": 3}`, http.StatusBadRequest},
		{"POST", "/v1/graph/edges", `{"u": 0, "v": 0, "w": 1}`, http.StatusBadRequest},
		{"POST", "/v1/graph/edges", `{"u": 0, "v": 99, "w": 1}`, http.StatusNotFound},
		{"POST", "/v1/graph/edges", `{"u": 5, "v": 3, "w": 0.5}`, http.StatusConflict},
		{"POST", "/v1/graph/edges", `{"u": 0, "v": 2, "w": -1}`, http.StatusBadRequest},
		{"PATCH", "/v1/graph/nodes/99", `{"authority": 3}`, http.StatusNotFound},
		{"PATCH", "/v1/graph/nodes/xyz", `{"authority": 3}`, http.StatusBadRequest},
		{"PATCH", "/v1/graph/nodes/1", `{}`, http.StatusBadRequest},
	} {
		var status int
		var data []byte
		if tc.method == "POST" {
			status, data = postJSON(t, ts.URL+tc.path, tc.body)
		} else {
			status, data = patchJSON(t, ts.URL+tc.path, tc.body)
		}
		if status != tc.want {
			t.Errorf("%s %s %s: status %d, want %d (%s)", tc.method, tc.path, tc.body, status, tc.want, data)
		}
	}
}

// TestCacheInvalidationOnMutation is the epoch-keyed cache acceptance
// check: a cached discover result must not be served after a mutation
// that touches a required skill's C(s) set.
func TestCacheInvalidationOnMutation(t *testing.T) {
	s, ts := newTestServer(t, nil)
	query := `{"skills": ["matrix"], "method": "sa-ca-cc"}`

	_, data := postJSON(t, ts.URL+"/v1/discover", query)
	first := decodeDiscover(t, data)
	if first.Cached || first.Epoch != 0 {
		t.Fatalf("first response: cached=%v epoch=%d", first.Cached, first.Epoch)
	}
	_, data = postJSON(t, ts.URL+"/v1/discover", query)
	if second := decodeDiscover(t, data); !second.Cached {
		t.Fatal("identical repeat not served from cache")
	}

	// Grow C(matrix): a superstar holder directly beside the old team.
	status, data := postJSON(t, ts.URL+"/v1/graph/nodes",
		`{"name": "grace", "authority": 100, "skills": ["matrix"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add node: %d %s", status, data)
	}
	id := *decodeMutation(t, data).ID
	if status, data = postJSON(t, ts.URL+"/v1/graph/edges",
		fmt.Sprintf(`{"u": %d, "v": 3, "w": 0.05}`, id)); status != http.StatusCreated {
		t.Fatalf("add edge: %d %s", status, data)
	}

	_, data = postJSON(t, ts.URL+"/v1/discover", query)
	third := decodeDiscover(t, data)
	if third.Cached {
		t.Fatal("mutation-stale result served from cache")
	}
	if third.Epoch != 2 {
		t.Errorf("post-mutation epoch %d, want 2", third.Epoch)
	}
	holders := map[string]bool{}
	for _, tm := range third.Teams {
		for _, m := range tm.Members {
			holders[m.Name] = true
		}
	}
	if !holders["grace"] {
		t.Errorf("new C(matrix) member ignored; teams: %s", data)
	}
	// The old epoch's entry must not resurface afterwards either.
	_, data = postJSON(t, ts.URL+"/v1/discover", query)
	if again := decodeDiscover(t, data); !again.Cached || again.Epoch != 2 {
		t.Errorf("epoch-2 result not re-cached: cached=%v epoch=%d", again.Cached, again.Epoch)
	}
	// The mutations evicted the dead epoch-0 entry eagerly — only the
	// live epoch's entry may remain, and the eviction is counted.
	if cs := s.cache.Stats(); cs.Size != 1 || cs.EpochEvictions == 0 {
		t.Errorf("dead-epoch entry not eagerly evicted: size=%d evictions_epoch=%d",
			cs.Size, cs.EpochEvictions)
	}
}

// TestIncrementalRepairServesNewEpoch drives the index-maintenance
// path: after warm-building the default-γ index, an in-bounds edge
// insertion must be absorbed by incremental repair (not a rebuild) and
// immediately answered from the repaired index.
func TestIncrementalRepairServesNewEpoch(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) { cfg.WarmIndex = true })
	if ixs := s.node.IndexStats(); ixs.FullRebuilds != 1 {
		t.Fatalf("warm build count %d", ixs.FullRebuilds)
	}

	// alice—carol at weight 0.35 stays inside the base weight bounds
	// [0.2, 0.9] and adds no authority extreme, so the γ index is
	// repairable in place.
	if status, data := postJSON(t, ts.URL+"/v1/graph/edges", `{"u": 0, "v": 2, "w": 0.35}`); status != http.StatusCreated {
		t.Fatalf("add edge: %d %s", status, data)
	}
	_, data := postJSON(t, ts.URL+"/v1/discover",
		`{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`)
	out := decodeDiscover(t, data)
	if out.Epoch != 1 {
		t.Fatalf("epoch %d", out.Epoch)
	}
	ixs := s.node.IndexStats()
	if ixs.PendingRebuild || ixs.IncrementalRepairs != 1 || ixs.FullRebuilds != 1 {
		t.Errorf("maintenance counters: pending=%v repairs=%d rebuilds=%d", ixs.PendingRebuild, ixs.IncrementalRepairs, ixs.FullRebuilds)
	}

	// An authority update is not incrementally repairable for the γ
	// index: the next discover kicks an async rebuild and still
	// answers (via Dijkstra fallback) at the right epoch.
	if status, data := patchJSON(t, ts.URL+"/v1/graph/nodes/3", `{"authority": 2}`); status != http.StatusOK {
		t.Fatalf("patch: %d %s", status, data)
	}
	_, data = postJSON(t, ts.URL+"/v1/discover",
		`{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`)
	if out := decodeDiscover(t, data); out.Epoch != 2 || len(out.Teams) == 0 {
		t.Fatalf("post-update discover: %s", data)
	}
}

// TestJournalRestartIdenticalEpoch is the server-level crash-replay
// check: a restarted daemon replays its journal onto the same base
// graph and resumes at the identical epoch.
func TestJournalRestartIdenticalEpoch(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	g := builderGraph(t)
	s1, ts1 := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.JournalPath = journal
	})
	status, data := postJSON(t, ts1.URL+"/v1/graph/nodes", `{"name": "zoe", "authority": 8, "skills": ["query"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add: %d %s", status, data)
	}
	id := *decodeMutation(t, data).ID
	if status, data = postJSON(t, ts1.URL+"/v1/graph/edges",
		fmt.Sprintf(`{"u": %d, "v": 0, "w": 0.5}`, id)); status != http.StatusCreated {
		t.Fatalf("edge: %d %s", status, data)
	}
	wantEpoch := s1.Store().Epoch()
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.JournalPath = journal
	})
	if got := s2.Store().Epoch(); got != wantEpoch {
		t.Fatalf("replayed epoch %d, want %d", got, wantEpoch)
	}
	status, data = postJSON(t, ts2.URL+"/v1/discover", `{"skills": ["query"]}`)
	if status != http.StatusOK {
		t.Fatalf("discover after replay: %d %s", status, data)
	}
	out := decodeDiscover(t, data)
	if out.Epoch != wantEpoch || len(out.Teams) == 0 || out.Teams[0].Members[0].Name != "zoe" {
		t.Fatalf("replayed state not served: %s", data)
	}
	var health HealthResponse
	if _, body := getBody(t, ts2.URL+"/healthz"); true {
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
	}
	if health.Epoch != wantEpoch {
		t.Errorf("healthz epoch %d, want %d", health.Epoch, wantEpoch)
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestConcurrentMutateAndDiscover hammers the daemon with concurrent
// readers and one mutating writer; every response must be well-formed
// and belong to a monotonically advancing epoch. Run under -race.
func TestConcurrentMutateAndDiscover(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const writes = 120

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		failures atomic.Int64
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for !done.Load() {
				status, data := postJSON(t, ts.URL+"/v1/discover",
					`{"skills": ["analytics", "matrix"], "method": "ca-cc"}`)
				if status != http.StatusOK {
					t.Errorf("discover: %d %s", status, data)
					failures.Add(1)
					return
				}
				out := decodeDiscover(t, data)
				if out.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", out.Epoch, lastEpoch)
					failures.Add(1)
					return
				}
				lastEpoch = out.Epoch
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < writes; i++ {
			status, data := postJSON(t, ts.URL+"/v1/graph/nodes",
				fmt.Sprintf(`{"name": "w%d", "authority": %d, "skills": ["analytics"]}`, i, 1+i%20))
			if status != http.StatusCreated {
				t.Errorf("add node %d: %d %s", i, status, data)
				failures.Add(1)
				return
			}
			id := *decodeMutation(t, data).ID
			if status, data = postJSON(t, ts.URL+"/v1/graph/edges",
				fmt.Sprintf(`{"u": %d, "v": %d, "w": 0.4}`, id, i%5)); status != http.StatusCreated {
				t.Errorf("add edge %d: %d %s", i, status, data)
				failures.Add(1)
				return
			}
		}
	}()
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}

	status, data := getBody(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Live.Epoch != 2*writes || stats.Live.NodesAdded != writes || stats.Live.EdgesAdded != writes {
		t.Errorf("live stats: %+v", stats.Live)
	}
	if stats.Mutations != 2*writes {
		t.Errorf("mutation counter %d, want %d", stats.Mutations, 2*writes)
	}
	if stats.ByOp["add_node"] != writes || stats.ByOp["add_edge"] != writes {
		t.Errorf("by-op counters: %v", stats.ByOp)
	}
}

// TestStatsLiveSection checks the /stats live payload shape on a quiet
// server.
func TestStatsLiveSection(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	_, ts := newTestServer(t, func(cfg *Config) { cfg.JournalPath = journal })

	if status, data := postJSON(t, ts.URL+"/v1/graph/edges", `{"u": 0, "v": 2, "w": 0.35}`); status != http.StatusCreated {
		t.Fatalf("edge: %d %s", status, data)
	}
	_, data := getBody(t, ts.URL+"/stats")
	var stats StatsResponse
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	l := stats.Live
	if l.Epoch != 1 || l.JournalRecords != 1 || l.JournalBytes == 0 {
		t.Errorf("journal stats: %+v", l)
	}
	if l.EdgesAdded != 1 || l.PendingRebuild {
		t.Errorf("live stats: %+v", l)
	}
	if !bytes.Contains(data, []byte(`"pending_rebuild"`)) {
		t.Error("pending_rebuild missing from payload")
	}
}

// TestPersistedIndexRepairedAcrossRestart is the regression test for a
// subtle staleness hazard: an index persisted at epoch E must not be
// adopted verbatim by a restarted daemon whose journal replays past E.
// The epoch in the file's header line anchors it and the load path
// repairs it across the journal delta (or discards it).
func TestPersistedIndexRepairedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.bin")
	journal := filepath.Join(dir, "wal.jsonl")
	if err := expertgraph.SaveFile(graphPath, builderGraph(t)); err != nil {
		t.Fatal(err)
	}

	s1, err := New(Config{GraphPath: graphPath, JournalPath: journal, WarmIndex: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The warm build persisted the γ index at epoch 0. Mutate past it:
	// an in-bounds edge the persisted file knows nothing about.
	if _, err := s1.Store().AddCollaboration(0, 2, 0.35); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: journal replays to epoch 1; the epoch-0 index file must
	// be repaired across the delta during the warm load.
	s2, err := New(Config{GraphPath: graphPath, JournalPath: journal, WarmIndex: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Store().Epoch(); got != 1 {
		t.Fatalf("replayed epoch %d", got)
	}
	if ixs := s2.node.IndexStats(); ixs.IncrementalRepairs != 1 {
		t.Fatalf("expected the loaded index to be repaired, repairs=%d", ixs.IncrementalRepairs)
	}

	// The repaired index must agree with a from-scratch server on the
	// same mutated graph.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	fresh, err := New(Config{Graph: s2.Graph(), NoPersistIndex: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsFresh := httptest.NewServer(fresh.Handler())
	defer tsFresh.Close()
	body := `{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`
	_, repairedData := postJSON(t, ts2.URL+"/v1/discover", body)
	_, freshData := postJSON(t, tsFresh.URL+"/v1/discover", body)
	a, b := decodeDiscover(t, repairedData), decodeDiscover(t, freshData)
	aj, _ := json.Marshal(a.Teams)
	bj, _ := json.Marshal(b.Teams)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("repaired-index teams differ from fresh build:\n%s\nvs\n%s", aj, bj)
	}
}

// TestDiscoverZeroMaterializations is the serving-side acceptance
// check of the overlay read path: discovers on freshly mutated epochs
// must not materialize a single graph. The mutation stream stays
// inside the repairable envelope (in-bounds edge insertions), so the
// index is carried forward incrementally and even the index path never
// copies the graph.
func TestDiscoverZeroMaterializations(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) { cfg.WarmIndex = true })
	if got := s.store.Materializations(); got != 0 {
		t.Fatalf("%d materializations after warm start, want 0 (base epoch serves the base graph)", got)
	}

	edges := []string{
		`{"u": 0, "v": 2, "w": 0.35}`,
		`{"u": 1, "v": 4, "w": 0.45}`,
		`{"u": 0, "v": 1, "w": 0.55}`,
	}
	for i, e := range edges {
		if status, data := postJSON(t, ts.URL+"/v1/graph/edges", e); status != http.StatusCreated {
			t.Fatalf("add edge: %d %s", status, data)
		}
		_, data := postJSON(t, ts.URL+"/v1/discover",
			`{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`)
		out := decodeDiscover(t, data)
		if out.Epoch != uint64(i+1) {
			t.Fatalf("discover after edge %d served epoch %d", i, out.Epoch)
		}
		if len(out.Teams) == 0 {
			t.Fatalf("no teams: %s", data)
		}
	}
	if got := s.store.Materializations(); got != 0 {
		t.Fatalf("%d materializations while serving a write-heavy stream, want 0", got)
	}

	// /stats surfaces the counter (and the epoch eviction counter).
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Live.Materializations != 0 {
		t.Fatalf("stats report %d materializations", stats.Live.Materializations)
	}
	if ixs := s.node.IndexStats(); ixs.PendingRebuild || ixs.IncrementalRepairs == 0 {
		t.Fatalf("expected incremental repairs to carry the index (pending=%v repairs=%d)", ixs.PendingRebuild, ixs.IncrementalRepairs)
	}
}

// TestBackgroundCompactorServing runs the daemon with the background
// compactor enabled under a sustained mutation stream: folds must
// happen while serving (no restart), each one re-basing the in-memory
// store so the resident log stays bounded, and discovery must keep
// answering correctly — including via incrementally repaired indexes
// whose anchors predate a re-base.
func TestBackgroundCompactorServing(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wal.jsonl")
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.JournalPath = journal
		cfg.CompactInterval = time.Millisecond
		cfg.CompactThreshold = 25
		cfg.WarmIndex = true
	})
	defer s.Close()

	const writes = 150
	for i := 0; i < writes; i++ {
		status, data := postJSON(t, ts.URL+"/v1/graph/nodes",
			fmt.Sprintf(`{"name": "c%d", "authority": %d, "skills": ["matrix"]}`, i, 1+i%15))
		if status != http.StatusCreated {
			t.Fatalf("add node %d: %d %s", i, status, data)
		}
		id := *decodeMutation(t, data).ID
		if status, data = postJSON(t, ts.URL+"/v1/graph/edges",
			fmt.Sprintf(`{"u": %d, "v": %d, "w": 0.3}`, id, i%5)); status != http.StatusCreated {
			t.Fatalf("add edge %d: %d %s", i, status, data)
		}
		// A discover every 8 iterations (16 journal records — under the
		// 25-record fold trigger) keeps each index anchor within one
		// fold generation of the serving epoch, so incremental repair
		// must carry the index across every re-base boundary.
		if i%8 == 0 {
			if status, data := postJSON(t, ts.URL+"/v1/discover",
				`{"skills": ["analytics", "matrix"]}`); status != http.StatusOK {
				t.Fatalf("discover at write %d: %d %s", i, status, data)
			}
		}
	}

	// The stream outpaces the 1ms poll on a loaded runner; give the
	// compactor a bounded window to fold the backlog.
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Compactions() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if s.store.Compactions() == 0 {
		t.Fatal("background compactor never folded")
	}

	status, data := getBody(t, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	var stats StatsResponse
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	l := stats.Live
	if l.BaseEpoch == 0 {
		t.Errorf("base epoch %d, want a re-based store", l.BaseEpoch)
	}
	if uint64(l.LogLen) != l.Epoch-l.BaseEpoch {
		t.Errorf("log_len %d, want epoch-base_epoch = %d", l.LogLen, l.Epoch-l.BaseEpoch)
	}
	if l.LogLen >= 2*writes {
		t.Errorf("resident log %d not reset by the re-base", l.LogLen)
	}
	if l.Compactor.Runs == 0 {
		t.Errorf("compactor runs: %+v", l.Compactor)
	}
	if l.Compactor.LastFoldMS <= 0 || l.Compactor.LastEpoch == 0 {
		t.Errorf("compactor fold telemetry missing: %+v", l.Compactor)
	}
	for _, field := range []string{`"base_epoch"`, `"log_len"`, `"runs"`, `"last_fold_ms"`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Errorf("%s missing from /stats payload", field)
		}
	}

	// Post-fold serving still answers, at the live epoch, with teams.
	status, data = postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics", "matrix"]}`)
	if status != http.StatusOK {
		t.Fatalf("discover after folds: %d %s", status, data)
	}
	out := decodeDiscover(t, data)
	if out.Epoch != 2*writes || len(out.Teams) == 0 {
		t.Fatalf("post-fold discover: epoch %d teams %d", out.Epoch, len(out.Teams))
	}
	// Incremental repair — not full rebuilds — carried the index
	// through the re-bases (anchors stayed within the one-generation
	// MutationsSince window the re-base retains).
	if ixs := s.node.IndexStats(); ixs.IncrementalRepairs == 0 {
		t.Error("no incremental repairs across fold boundaries")
	}
}
