package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
)

func deleteJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, strings.NewReader(body))
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

// TestDecrementalEndpoints drives the DELETE/PATCH graph API end to
// end: edge re-weight, edge removal, node tombstoning, error mapping
// and the epoch-keyed cache invalidation.
func TestDecrementalEndpoints(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Re-weight dave—carol.
	status, data := patchJSON(t, ts.URL+"/v1/graph/edges", `{"u": 3, "v": 2, "w": 0.35}`)
	if status != http.StatusOK {
		t.Fatalf("patch edge: %d %s", status, data)
	}
	if upd := decodeMutation(t, data); upd.Epoch != 1 || upd.Edges != 5 {
		t.Fatalf("patch edge response: %+v", upd)
	}
	if w, _ := s.Store().Snapshot().View().EdgeWeight(3, 2); w != 0.35 {
		t.Fatalf("re-weight not visible: %v", w)
	}

	// Cache a discover, then remove an edge: the answer must be
	// recomputed at the new epoch, never served from the dead one.
	status, data = postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics", "communities"]}`)
	if status != http.StatusOK {
		t.Fatalf("discover: %d %s", status, data)
	}
	if out := decodeDiscover(t, data); out.Epoch != 1 {
		t.Fatalf("discover epoch %d", out.Epoch)
	}
	status, data = deleteJSON(t, ts.URL+"/v1/graph/edges", `{"u": 4, "v": 2}`)
	if status != http.StatusOK {
		t.Fatalf("delete edge: %d %s", status, data)
	}
	if del := decodeMutation(t, data); del.Epoch != 2 || del.Edges != 4 {
		t.Fatalf("delete edge response: %+v", del)
	}
	status, data = postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics", "communities"]}`)
	if status != http.StatusOK {
		t.Fatalf("discover after delete: %d %s", status, data)
	}
	if out := decodeDiscover(t, data); out.Epoch != 2 || out.Cached {
		t.Fatalf("post-removal discover served epoch %d (cached=%v), want fresh epoch 2", out.Epoch, out.Cached)
	}

	// Tombstone erin: her edges go with her and she stops being
	// discoverable; her ID answers 410 Gone from then on.
	status, data = deleteJSON(t, ts.URL+"/v1/graph/nodes/4", ``)
	if status != http.StatusOK {
		t.Fatalf("delete node: %d %s", status, data)
	}
	del := decodeMutation(t, data)
	if del.Epoch != 3 || del.Nodes != 5 || del.Edges != 3 {
		t.Fatalf("delete node response: %+v", del)
	}
	if v := s.Store().Snapshot().View(); v.ValidNode(4) || v.Degree(4) != 0 {
		t.Fatal("tombstoned node still live")
	}
	status, data = postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics"]}`)
	if status != http.StatusOK {
		t.Fatalf("discover after tombstone: %d %s", status, data)
	}
	for _, tm := range decodeDiscover(t, data).Teams {
		for _, m := range tm.Members {
			if m.Name == "erin" {
				t.Fatal("tombstoned expert still discovered")
			}
		}
	}

	// Error mapping.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"DELETE", "/v1/graph/edges", `{"u": 0, "v": 2}`, http.StatusNotFound},  // no such edge
		{"DELETE", "/v1/graph/edges", `{"u": 0, "v": 99}`, http.StatusNotFound}, // no such node
		{"PATCH", "/v1/graph/edges", `{"u": 0, "v": 2, "w": 1}`, http.StatusNotFound},
		{"PATCH", "/v1/graph/edges", `{"u": 0, "v": 3, "w": -1}`, http.StatusBadRequest},
		{"PATCH", "/v1/graph/edges", `{"u": 0, "v": 3, "w": 0.3}`, http.StatusBadRequest}, // no-op re-weight
		{"DELETE", "/v1/graph/nodes/4", ``, http.StatusGone},                              // already tombstoned
		{"DELETE", "/v1/graph/nodes/99", ``, http.StatusNotFound},
		{"DELETE", "/v1/graph/nodes/xyz", ``, http.StatusBadRequest},
		{"PATCH", "/v1/graph/nodes/4", `{"authority": 9}`, http.StatusGone},
		{"POST", "/v1/graph/edges", `{"u": 4, "v": 0, "w": 0.5}`, http.StatusGone},
		{"DELETE", "/v1/graph/edges", `{"u": 4, "v": 0}`, http.StatusGone},
		{"PATCH", "/v1/graph/edges", `{"u": 4, "v": 0, "w": 0.5}`, http.StatusGone},
	} {
		var status int
		var data []byte
		switch tc.method {
		case "POST":
			status, data = postJSON(t, ts.URL+tc.path, tc.body)
		case "PATCH":
			status, data = patchJSON(t, ts.URL+tc.path, tc.body)
		default:
			status, data = deleteJSON(t, ts.URL+tc.path, tc.body)
		}
		if status != tc.want {
			t.Errorf("%s %s %s: status %d, want %d (%s)", tc.method, tc.path, tc.body, status, tc.want, data)
		}
	}

	// Mutation counters: /stats reports the new ops and kinds.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := decodeInto(t, resp.Body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Live.EdgesRemoved != 1 || stats.Live.NodesRemoved != 1 || stats.Live.EdgesUpdated != 1 {
		t.Errorf("live counters: %+v", stats.Live.Counters)
	}
	for _, op := range []string{"remove_edge", "remove_node", "update_edge"} {
		if stats.ByOp[op] != 1 {
			t.Errorf("by_op[%s] = %d, want 1", op, stats.ByOp[op])
		}
	}
	if stats.MutationErrors == 0 {
		t.Error("rejected mutations not counted")
	}
}

func decodeInto(t *testing.T, r io.Reader, dst any) error {
	t.Helper()
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, dst)
}

// TestMixedChurnRepairsNotRebuilds is the acceptance criterion of the
// fully dynamic cover at the serving layer: over a randomized
// in-bounds insert/remove/re-weight/authority stream, every delta is
// absorbed by incremental repair — full_rebuilds stays at its warmup
// value — and the decremental/reweight repair kinds are the ones doing
// the absorbing.
func TestMixedChurnRepairsNotRebuilds(t *testing.T) {
	// Bounds-pinned graph: sentinel extremes the churn never touches,
	// so the weighted γ index stays repairable for every delta.
	b := expertgraph.NewBuilder(22, 60)
	for i := 0; i < 20; i++ {
		b.AddNode(fmt.Sprintf("e%d", i), 2+float64(i), "s", fmt.Sprintf("k%d", i%4))
	}
	lo := b.AddNode("pin-lo", 1, "s")
	hi := b.AddNode("pin-hi", 1000, "s")
	b.AddEdge(lo, hi, 0.01)
	b.AddEdge(lo, 0, 5.0)
	for i := 1; i < 20; i++ {
		b.AddEdge(expertgraph.NodeID(i-1), expertgraph.NodeID(i), 0.2+0.02*float64(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.WarmIndex = true
	})
	warm := s.node.IndexStats().FullRebuilds

	rng := rand.New(rand.NewSource(91))
	store := s.Store()
	discover := func() {
		status, data := postJSON(t, ts.URL+"/v1/discover", `{"skills": ["k0", "k1", "k2"], "method": "sa-ca-cc"}`)
		if status != http.StatusOK {
			t.Fatalf("discover: %d %s", status, data)
		}
	}
	discover()

	for round := 0; round < 25; round++ {
		// A small in-bounds delta of mixed kinds, then a discover that
		// must absorb it by repair.
		for i := 0; i < 3; i++ {
			switch rng.Intn(5) {
			case 0:
				u, v := expertgraph.NodeID(rng.Intn(20)), expertgraph.NodeID(rng.Intn(20))
				if u != v {
					_, _ = store.AddCollaboration(u, v, 0.3+0.4*rng.Float64())
				}
			case 1:
				if u, v, ok := randomStoreEdge(rng, store, 20); ok {
					_, _ = store.RemoveCollaboration(u, v)
				}
			case 2:
				if u, v, ok := randomStoreEdge(rng, store, 20); ok {
					_, _ = store.UpdateCollaboration(u, v, 0.3+0.4*rng.Float64())
				}
			case 3: // in-bounds authority move
				auth := 3 + float64(rng.Intn(500))
				_, _ = store.UpdateExpert(expertgraph.NodeID(rng.Intn(20)), &auth, nil)
			default: // value-unchanged authority update (must be skipped, not rebuilt)
				u := expertgraph.NodeID(rng.Intn(20))
				same := store.Snapshot().View().Authority(u)
				_, _ = store.UpdateExpert(u, &same, nil)
			}
		}
		discover()
	}

	ixs := s.node.IndexStats()
	if ixs.FullRebuilds != warm {
		t.Errorf("full_rebuilds moved under mixed churn: %d, want warmup value %d", ixs.FullRebuilds, warm)
	}
	if ixs.IncrementalRepairs == 0 || ixs.RepairsDecremental == 0 {
		t.Errorf("repairs did not absorb the stream: %+v", ixs)
	}
	if ixs.PendingRebuild {
		t.Error("async rebuild pending under mixed churn")
	}
}

// TestExtremeRetirementChurnRepairsNotRebuilds pins the covering-bounds
// fix at the serving layer: a churn stream that *deliberately* retires
// the current extremes every round — removing the max-weight edge,
// re-authoring or tombstoning the expert holding the max inverse
// authority — used to move the tight normalization bounds and force a
// full weighted rebuild per round. Covering bounds never shrink, so
// every one of these deltas must now be absorbed by decremental repair
// with full_rebuilds flat at its warmup value.
func TestExtremeRetirementChurnRepairsNotRebuilds(t *testing.T) {
	// No sentinel pins: the extremes are live values the churn retires.
	b := expertgraph.NewBuilder(24, 60)
	for i := 0; i < 24; i++ {
		b.AddNode(fmt.Sprintf("e%d", i), 2+float64(i), "s", fmt.Sprintf("k%d", i%4))
	}
	for i := 1; i < 24; i++ {
		b.AddEdge(expertgraph.NodeID(i-1), expertgraph.NodeID(i), 0.2+0.02*float64(i))
	}
	for i := 0; i < 12; i++ {
		b.AddEdge(expertgraph.NodeID(i), expertgraph.NodeID(i+12), 0.3+0.01*float64(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.Graph = g
		cfg.WarmIndex = true
	})
	warm := s.node.IndexStats().FullRebuilds
	store := s.Store()
	discover := func() {
		status, data := postJSON(t, ts.URL+"/v1/discover", `{"skills": ["k0", "k1", "k2"], "method": "sa-ca-cc"}`)
		if status != http.StatusOK {
			t.Fatalf("discover: %d %s", status, data)
		}
	}
	discover()

	for round := 0; round < 12; round++ {
		v := store.Snapshot().View()

		// Retire the edge holding the current max weight.
		var mu, mv expertgraph.NodeID
		mw := -1.0
		for u := 0; u < v.NumNodes(); u++ {
			v.Neighbors(expertgraph.NodeID(u), func(w expertgraph.NodeID, wt float64) bool {
				if expertgraph.NodeID(u) < w && wt > mw {
					mu, mv, mw = expertgraph.NodeID(u), w, wt
				}
				return true
			})
		}
		if mw >= 0 {
			if _, err := store.RemoveCollaboration(mu, mv); err != nil {
				t.Fatalf("round %d: remove max edge: %v", round, err)
			}
		}

		// Retire the expert holding the current max inverse authority
		// (lowest authority): re-author most rounds, tombstone some.
		lowest, lowAuth := expertgraph.NodeID(-1), 1e18
		for u := 0; u < v.NumNodes(); u++ {
			id := expertgraph.NodeID(u)
			if !v.ValidNode(id) {
				continue
			}
			if a := v.Authority(id); a < lowAuth {
				lowest, lowAuth = id, a
			}
		}
		if round%5 == 2 {
			if _, err := store.RemoveExpert(lowest); err != nil {
				t.Fatalf("round %d: tombstone extreme expert: %v", round, err)
			}
		} else {
			// Strictly inside the covering authority range (2, 25].
			mid := 12 + 0.1*float64(round)
			if _, err := store.UpdateExpert(lowest, &mid, nil); err != nil {
				t.Fatalf("round %d: re-author extreme expert: %v", round, err)
			}
		}
		discover()
	}

	ixs := s.node.IndexStats()
	if ixs.FullRebuilds != warm {
		t.Errorf("full_rebuilds moved under extreme-retirement churn: %d, want warmup value %d", ixs.FullRebuilds, warm)
	}
	if ixs.RepairsDecremental == 0 {
		t.Errorf("decremental repairs did not absorb the stream: %+v", ixs)
	}
	if ixs.PendingRebuild {
		t.Error("async rebuild pending under extreme-retirement churn")
	}
}

// randomStoreEdge picks a random edge among the first n nodes (the
// churn population; sentinel extremes are excluded).
func randomStoreEdge(rng *rand.Rand, store *live.Store, n int) (expertgraph.NodeID, expertgraph.NodeID, bool) {
	v := store.Snapshot().View()
	start := rng.Intn(n)
	for off := 0; off < n; off++ {
		u := expertgraph.NodeID((start + off) % n)
		var pick expertgraph.NodeID
		found := false
		v.Neighbors(u, func(w expertgraph.NodeID, _ float64) bool {
			if int(w) < n {
				pick, found = w, true
				return rng.Intn(3) != 0 // keep scanning sometimes, for variety
			}
			return true
		})
		if found {
			return u, pick, true
		}
	}
	return 0, 0, false
}
