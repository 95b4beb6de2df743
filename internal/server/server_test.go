package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/obs"
	"authteam/internal/workload"
)

// builderGraph is a small handcrafted network: three skills, one
// high-authority connector (dave), every node reachable.
func builderGraph(t testing.TB) *expertgraph.Graph {
	t.Helper()
	b := expertgraph.NewBuilder(5, 6)
	alice := b.AddNode("alice", 12, "analytics")
	bob := b.AddNode("bob", 3, "matrix")
	carol := b.AddNode("carol", 7, "communities")
	dave := b.AddNode("dave", 9)
	erin := b.AddNode("erin", 5, "analytics", "matrix")
	b.AddEdge(alice, dave, 0.3)
	b.AddEdge(dave, bob, 0.2)
	b.AddEdge(dave, carol, 0.5)
	b.AddEdge(alice, erin, 0.9)
	b.AddEdge(erin, carol, 0.4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Graph: builderGraph(t), Workers: 4, CacheSize: 64}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: the listener stops, then the
	// server's background loops, before the test's TempDir is removed.
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func decodeDiscover(t *testing.T, data []byte) DiscoverResponse {
	t.Helper()
	var out DiscoverResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return out
}

func TestDiscoverBasic(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, data := postJSON(t, ts.URL+"/v1/discover",
		`{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	out := decodeDiscover(t, data)
	if len(out.Teams) == 0 {
		t.Fatal("no teams")
	}
	if out.Cached {
		t.Error("first query reported cached")
	}
	if out.Gamma != 0.6 || out.Lambda != 0.6 {
		t.Errorf("defaults not applied: γ=%v λ=%v", out.Gamma, out.Lambda)
	}
	// Every requested skill must be assigned to some member.
	covered := make(map[string]bool)
	for _, m := range out.Teams[0].Members {
		for _, s := range m.Skills {
			covered[s] = true
		}
	}
	for _, s := range []string{"analytics", "matrix", "communities"} {
		if !covered[s] {
			t.Errorf("skill %q not covered: %s", s, data)
		}
	}
}

func TestDiscoverAllMethods(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, method := range []string{"cc", "ca-cc", "sa-ca-cc", "random", "exact"} {
		body := fmt.Sprintf(`{"skills": ["analytics", "communities"], "method": %q}`, method)
		status, data := postJSON(t, ts.URL+"/v1/discover", body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, status, data)
		}
		if out := decodeDiscover(t, data); len(out.Teams) == 0 {
			t.Errorf("%s: no teams", method)
		}
	}
	status, data := postJSON(t, ts.URL+"/v1/discover",
		`{"skills": ["analytics", "communities"], "method": "pareto"}`)
	if status != http.StatusOK {
		t.Fatalf("pareto: status %d: %s", status, data)
	}
	if out := decodeDiscover(t, data); len(out.Pareto) == 0 {
		t.Error("pareto: empty front")
	}
}

func TestDiscoverErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"malformed json", "{", http.StatusBadRequest},
		{"missing skills", `{"method": "cc"}`, http.StatusBadRequest},
		{"unknown skill", `{"skills": ["juggling"]}`, http.StatusBadRequest},
		{"blank skill", `{"skills": [" "]}`, http.StatusBadRequest},
		{"bad method", `{"skills": ["analytics"], "method": "steiner"}`, http.StatusBadRequest},
		{"bad gamma", `{"skills": ["analytics"], "gamma": 1.5}`, http.StatusBadRequest},
		{"bad lambda", `{"skills": ["analytics"], "lambda": -0.1}`, http.StatusBadRequest},
		{"negative k", `{"skills": ["analytics"], "k": -1}`, http.StatusBadRequest},
		{"huge k", `{"skills": ["analytics"], "k": 4611686018427387904}`, http.StatusBadRequest},
		{"negative trials", `{"skills": ["analytics"], "method": "random", "trials": -5}`, http.StatusBadRequest},
		{"huge trials", `{"skills": ["analytics"], "method": "random", "trials": 2000000000}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, data := postJSON(t, ts.URL+"/v1/discover", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, data)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: malformed error body %s", tc.name, data)
		}
	}
}

func TestDiscoverInfeasible(t *testing.T) {
	b := expertgraph.NewBuilder(4, 2)
	a1 := b.AddNode("a1", 1, "x")
	a2 := b.AddNode("a2", 1, "x")
	c1 := b.AddNode("c1", 1, "y")
	c2 := b.AddNode("c2", 1, "y")
	b.AddEdge(a1, a2, 1)
	b.AddEdge(c1, c2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Graph: g, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, data := postJSON(t, ts.URL+"/v1/discover", `{"skills": ["x", "y"]}`)
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", status, data)
	}
}

func TestCacheHitDeterminism(t *testing.T) {
	s, ts := newTestServer(t, nil)
	body := `{"skills": ["matrix", "analytics"], "method": "ca-cc", "k": 3}`
	status1, data1 := postJSON(t, ts.URL+"/v1/discover", body)
	if status1 != http.StatusOK {
		t.Fatalf("first: status %d: %s", status1, data1)
	}
	// Same query with reordered, duplicated skills normalizes to the
	// same cache key.
	status2, data2 := postJSON(t, ts.URL+"/v1/discover",
		`{"skills": ["analytics", "matrix", "analytics"], "method": "ca-cc", "k": 3}`)
	if status2 != http.StatusOK {
		t.Fatalf("second: status %d: %s", status2, data2)
	}
	first, second := decodeDiscover(t, data1), decodeDiscover(t, data2)
	if first.Cached {
		t.Error("first query reported cached")
	}
	if !second.Cached {
		t.Error("repeat query not served from cache")
	}
	a, _ := json.Marshal(first.Teams)
	b, _ := json.Marshal(second.Teams)
	if !bytes.Equal(a, b) {
		t.Errorf("cached teams differ:\n%s\n%s", a, b)
	}
	if hits := s.cache.Stats().Hits; hits == 0 {
		t.Error("cache hit count is zero after a repeated identical query")
	}
}

func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, data := postJSON(t, ts.URL+"/v1/discover/batch", `{"requests": [
		{"skills": ["analytics", "communities"], "method": "sa-ca-cc"},
		{"skills": ["nope"]},
		{"skills": ["matrix"], "method": "cc", "k": 2}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	for i, item := range out.Results {
		if item.Index != i {
			t.Errorf("result %d has index %d", i, item.Index)
		}
	}
	if out.Results[0].Status != http.StatusOK || len(out.Results[0].Response.Teams) == 0 {
		t.Errorf("item 0: %+v", out.Results[0])
	}
	if out.Results[1].Status != http.StatusBadRequest || out.Results[1].Error == "" {
		t.Errorf("item 1: %+v", out.Results[1])
	}
	if out.Results[2].Status != http.StatusOK {
		t.Errorf("item 2: %+v", out.Results[2])
	}
}

func TestBatchErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for name, body := range map[string]string{
		"empty body":  "",
		"empty batch": `{"requests": []}`,
	} {
		status, data := postJSON(t, ts.URL+"/v1/discover/batch", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, data)
		}
	}
}

// TestRequestBodyLimit pins the request body bound: a full batch padded
// to exactly maxBodyBytes is answered, and one byte more is refused with
// 413 before it is decoded (decoded, its maxBatchSize+1 items would draw
// a 400 for their count instead).
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	batch := func(items, size int) string {
		item := `{"skills": ["analytics"]}`
		body := `{"requests": [` + strings.Repeat(item+", ", items-1) + item + "]"
		return body + strings.Repeat(" ", size-len(body)-1) + "}"
	}
	if status, data := postJSON(t, ts.URL+"/v1/discover/batch", batch(maxBatchSize, maxBodyBytes)); status != http.StatusOK {
		t.Fatalf("full batch of %d bytes: status %d (%.200s)", maxBodyBytes, status, data)
	}
	status, data := postJSON(t, ts.URL+"/v1/discover/batch", batch(maxBatchSize+1, maxBodyBytes+1))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413 (%.200s)", status, data)
	}
}

// FuzzDiscoverRequest feeds arbitrary bodies through request decoding
// and normalization: a rejected body draws 400 (413 past the body
// bound), and an accepted one becomes a query inside every bound the
// search relies on.
func FuzzDiscoverRequest(f *testing.F) {
	for _, body := range []string{
		"",
		"{",
		`{"method": "cc"}`,
		`{"skills": ["analytics"]}`,
		`{"skills": ["communities"]}`,
		`{"skills": ["analytics", "matrix"]}`,
		`{"skills": ["analytics", "communities"], "method": "pareto"}`,
		`{"skills": ["analytics", "matrix"], "method": "ca-cc"}`,
		`{"skills": ["analytics", "matrix", "analytics"], "method": "ca-cc", "k": 3}`,
		`{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`,
		`{"skills": ["matrix"], "method": "cc", "k": 2}`,
		`{"skills": ["juggling"]}`,
		`{"skills": [" "]}`,
		`{"skills": ["analytics"], "method": "steiner"}`,
		`{"skills": ["analytics"], "gamma": 1.5}`,
		`{"skills": ["analytics"], "lambda": -0.1}`,
		`{"skills": ["analytics"], "k": -1}`,
		`{"skills": ["analytics"], "k": 4611686018427387904}`,
		`{"skills": ["analytics"], "method": "random", "trials": -5}`,
		`{"skills": ["analytics"], "method": "random", "trials": 2000000000}`,
	} {
		f.Add([]byte(body))
	}
	g := builderGraph(f)
	s, err := New(Config{Graph: g})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/discover", bytes.NewReader(body))
		var req DiscoverRequest
		if herr := decodeBody(httptest.NewRecorder(), r, &req); herr != nil {
			if herr.status != http.StatusBadRequest && herr.status != http.StatusRequestEntityTooLarge {
				t.Fatalf("undecodable body: status %d (%s)", herr.status, herr.msg)
			}
			return
		}
		q, herr := s.normalize(g, &req)
		if herr != nil {
			if herr.status != http.StatusBadRequest {
				t.Fatalf("invalid request: status %d (%s)", herr.status, herr.msg)
			}
			return
		}
		if q.k < 1 || q.k > maxK || q.trials < 1 || q.trials > maxTrials {
			t.Fatalf("accepted k=%d trials=%d", q.k, q.trials)
		}
		if !(q.gamma >= 0 && q.gamma <= 1 && q.lambda >= 0 && q.lambda <= 1) {
			t.Fatalf("accepted γ=%v λ=%v", q.gamma, q.lambda)
		}
		asked := make(map[string]bool)
		for _, name := range req.Skills {
			asked[strings.TrimSpace(name)] = true
		}
		if len(q.project) != len(asked) || len(q.names) != len(q.project) {
			t.Fatalf("project %v (names %q) for skills %q", q.project, q.names, req.Skills)
		}
		for i, id := range q.project {
			if id < 0 || int(id) >= g.NumSkills() || (i > 0 && q.project[i-1] >= id) {
				t.Fatalf("project %v is not an ascending list of skill IDs", q.project)
			}
			if q.names[i] != g.SkillName(id) || !asked[q.names[i]] {
				t.Fatalf("skill %d named %q, asked for %q", id, q.names[i], req.Skills)
			}
		}
	})
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Errorf("status %q", out.Status)
	}
	if out.Graph.Nodes != s.Graph().NumNodes() {
		t.Errorf("nodes = %d, want %d", out.Graph.Nodes, s.Graph().NumNodes())
	}
}

func TestStats(t *testing.T) {
	_, ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics"]}`)
	postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics"]}`)
	postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics"], "method": "bogus"}`)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Queries != 3 {
		t.Errorf("queries = %d, want 3", out.Queries)
	}
	if out.Errors != 1 {
		t.Errorf("errors = %d, want 1", out.Errors)
	}
	if out.ByMethod["sa-ca-cc"] != 2 {
		t.Errorf("by_method = %v", out.ByMethod)
	}
	// Arbitrary client method strings must not become counter keys.
	if out.ByMethod["invalid"] != 1 || out.ByMethod["bogus"] != 0 {
		t.Errorf("by_method = %v, want invalid=1 and no raw label", out.ByMethod)
	}
	if out.Cache.Hits != 1 || out.Cache.Misses != 1 {
		t.Errorf("cache = %+v", out.Cache)
	}
	if out.Latency.Count != 2 {
		t.Errorf("latency count = %d, want 2", out.Latency.Count)
	}
}

// TestStatsSlowestTraceExemplar: /stats pairs its latency percentiles
// with the window's slowest successful discovery, including the stage
// breakdown while tracing is on (the default), and the exemplar rolls
// to the _prev slot when the sample window completes.
func TestStatsSlowestTraceExemplar(t *testing.T) {
	_, ts := newTestServer(t, nil)
	postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics"]}`)
	postJSON(t, ts.URL+"/v1/discover", `{"skills": ["communities"]}`)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ex := out.SlowestTrace
	if ex == nil {
		t.Fatal("no slowest-trace exemplar after successful discoveries")
	}
	if ex.Method != "sa-ca-cc" || ex.ElapsedMS < 0 {
		t.Fatalf("exemplar %+v", ex)
	}
	if ex.Trace == nil || len(ex.Trace.Spans) == 0 {
		t.Fatalf("exemplar carries no stage breakdown with tracing on: %+v", ex)
	}

	// Window roll: after latencyWindow samples the exemplar retires to
	// the previous slot and the current one restarts. Drive the metrics
	// layer directly — 4096 HTTP round trips would dwarf the test.
	m := newMetrics(obs.NewRegistry())
	m.record("sa-ca-cc", 5*time.Millisecond, false, nil)
	for i := 0; i < latencyWindow-1; i++ {
		m.record("sa-ca-cc", time.Millisecond, false, nil)
	}
	snap := m.snapshot()
	if snap.PrevSlowestTrace == nil || snap.PrevSlowestTrace.ElapsedMS != 5 {
		t.Fatalf("completed window's exemplar not retired: %+v", snap.PrevSlowestTrace)
	}
	if snap.SlowestTrace != nil {
		t.Fatalf("fresh window should start with no exemplar, got %+v", snap.SlowestTrace)
	}
	m.record("pareto", 9*time.Millisecond, false, nil)
	if snap = m.snapshot(); snap.SlowestTrace == nil || snap.SlowestTrace.Method != "pareto" {
		t.Fatalf("new window's exemplar: %+v", snap.SlowestTrace)
	}
}

func TestTimeout(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	status, data := postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics"]}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, data)
	}
}

func TestIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.bin")
	if err := expertgraph.SaveFile(path, builderGraph(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{GraphPath: path, Workers: 2, WarmIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	indexPath := path + ".pll-g0.6"
	if _, err := os.Stat(indexPath); err != nil {
		t.Fatalf("warm index not persisted: %v", err)
	}
	_ = s
	// A second server over the same path must come up (loading, not
	// rebuilding, the persisted index) and serve queries.
	s2, err := New(Config{GraphPath: path, Workers: 2, WarmIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	status, data := postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics", "communities"]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
}

// TestStaleIndexDetected regenerates the graph with the same node
// count but different edge weights; the persisted index must be
// rejected by the distance spot-check, not silently reused.
func TestStaleIndexDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.bin")
	if err := expertgraph.SaveFile(path, builderGraph(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{GraphPath: path, Workers: 2, WarmIndex: true}); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path + ".pll-g0.6")
	if err != nil {
		t.Fatal(err)
	}

	// Same topology, different weights → same node count, different
	// distances.
	b := expertgraph.NewBuilder(5, 6)
	alice := b.AddNode("alice", 12, "analytics")
	bob := b.AddNode("bob", 3, "matrix")
	carol := b.AddNode("carol", 7, "communities")
	dave := b.AddNode("dave", 9)
	erin := b.AddNode("erin", 5, "analytics", "matrix")
	b.AddEdge(alice, dave, 0.9)
	b.AddEdge(dave, bob, 0.8)
	b.AddEdge(dave, carol, 0.1)
	b.AddEdge(alice, erin, 0.2)
	b.AddEdge(erin, carol, 0.7)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := expertgraph.SaveFile(path, g2); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{GraphPath: path, Workers: 2, WarmIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path + ".pll-g0.6")
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().After(before.ModTime()) && after.Size() == before.Size() {
		t.Error("stale index was not rebuilt after the graph changed")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, data := postJSON(t, ts.URL+"/v1/discover", `{"skills": ["analytics", "communities"]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
}

// coverFile mirrors the fields of a persisted 2-hop cover file (gob
// matches fields by name), so a test can write damaged or outdated
// covers without the pll package's writer.
type coverFile struct {
	N      int
	Total  int
	Quant  float64
	Off    []int32
	Data   []byte
	RankOf []int32
	NodeAt []expertgraph.NodeID
}

// coverFileV2 is the version-2 layout: no fixed-point scale.
type coverFileV2 struct {
	N      int
	Total  int
	Off    []int32
	Data   []byte
	RankOf []int32
	NodeAt []expertgraph.NodeID
}

func encodeCover(t *testing.T, magic string, f any) []byte {
	t.Helper()
	buf := bytes.NewBufferString(magic)
	if err := gob.NewEncoder(buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBootRebuildsUnreadableIndex boots with an unreadable cover file
// next to the graph: a current-format file whose label store was cut
// in half, a version-2 file, garbage, and a valid cover without its
// epoch header line — bare, and in the older layout that kept the
// epoch in a <cover>.epoch sidecar. Each boot must come up, rebuild
// the index once (full_rebuilds 1), and serve the same teams as a cold
// start. The cut label store keeps the file's shape valid, so only
// label validation keeps it out of the warm-index spot check, whose
// unchecked decoder would index past the store; a cover without a
// header has no known epoch, so it must never be loaded.
func TestBootRebuildsUnreadableIndex(t *testing.T) {
	g := synthGraph(t)
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := expertgraph.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(g, 11, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for i, method := range []string{"ca-cc", "sa-ca-cc", "ca-cc", "sa-ca-cc"} {
		project, err := gen.Project(2 + i%2)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(project))
		for j, id := range project {
			names[j] = g.SkillName(id)
		}
		payload, _ := json.Marshal(DiscoverRequest{Skills: names, Method: method, K: 2})
		bodies = append(bodies, string(payload))
	}
	// boot starts a warm server over path and returns its full_rebuilds
	// count and the teams it serves for every body.
	boot := func(t *testing.T) (uint64, []string) {
		t.Helper()
		s, err := New(Config{GraphPath: path, Workers: 2, WarmIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		rebuilds := getStats(t, ts.URL).Live.FullRebuilds
		var teams []string
		for _, body := range bodies {
			status, data := postJSON(t, ts.URL+"/v1/discover", body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, data)
			}
			out, _ := json.Marshal(decodeDiscover(t, data).Teams)
			teams = append(teams, string(out))
		}
		return rebuilds, teams
	}

	_, want := boot(t)
	indexPath := path + ".pll-g0.6"
	valid, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatalf("cold start persisted no index: %v", err)
	}
	// The cover follows its one-line epoch header.
	header, cover, ok := bytes.Cut(valid, []byte("\n"))
	if !ok {
		t.Fatal("persisted cover has no header line")
	}
	header = append(header, '\n')
	var f coverFile
	if err := gob.NewDecoder(bytes.NewReader(cover[len("PLLIDX03"):])).Decode(&f); err != nil {
		t.Fatal(err)
	}
	cut := f
	cut.Data = f.Data[:len(f.Data)/2]
	withHeader := func(b []byte) []byte { return append(append([]byte(nil), header...), b...) }
	files := map[string][]byte{
		"damaged": withHeader(encodeCover(t, "PLLIDX03", cut)),
		"v2": withHeader(encodeCover(t, "PLLIDX02", coverFileV2{
			N: f.N, Total: f.Total, Off: f.Off, Data: f.Data, RankOf: f.RankOf, NodeAt: f.NodeAt,
		})),
		"garbage":   []byte("not a 2-hop cover\n"),
		"no-header": cover,
		"sidecar":   cover,
	}
	for name, data := range files {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(indexPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if name == "sidecar" {
				sidecar := indexPath + ".epoch"
				if err := os.WriteFile(sidecar, []byte("0\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				defer os.Remove(sidecar)
			}
			rebuilds, got := boot(t)
			if rebuilds != 1 {
				t.Fatalf("full_rebuilds = %d at boot, want 1", rebuilds)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("request %s: teams %s, cold start served %s", bodies[i], got[i], want[i])
				}
			}
		})
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{Graph: builderGraph(t), Addr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// synthGraph builds the expgen-style synthetic expert network used by
// the concurrency test.
func synthGraph(tb testing.TB) *expertgraph.Graph {
	tb.Helper()
	corpus := dblp.Synthesize(dblp.SynthConfig{Seed: 1, Authors: 400})
	g, _, err := dblp.BuildGraph(corpus, dblp.GraphOptions{LargestComponent: true})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestConcurrentDiscover drives ≥64 concurrent discovery requests
// against a synthetic graph — the acceptance load for the serving
// layer — mixing methods and repeating queries so both the compute and
// cache paths run under contention (go test -race covers the races).
func TestConcurrentDiscover(t *testing.T) {
	g := synthGraph(t)
	s, err := New(Config{Graph: g, Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gen, err := workload.NewGenerator(g, 7, workload.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	methods := []string{"cc", "ca-cc", "sa-ca-cc"}
	for i := 0; i < 8; i++ {
		project, err := gen.Project(2)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(project))
		for j, id := range project {
			names[j] = g.SkillName(id)
		}
		payload, _ := json.Marshal(DiscoverRequest{
			Skills: names,
			Method: methods[i%len(methods)],
			K:      2,
		})
		bodies = append(bodies, string(payload))
	}

	const requests = 96
	var wg sync.WaitGroup
	errs := make(chan string, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/discover", "application/json",
				strings.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	snap := s.metrics.snapshot()
	if snap.Queries != requests {
		t.Errorf("queries = %d, want %d", snap.Queries, requests)
	}
	// The concurrent wave may race past the cache before the first
	// fill (no request coalescing), so assert the cache on a repeat
	// pass: every body has been computed at least once by now.
	for i, body := range bodies {
		status, data := postJSON(t, ts.URL+"/v1/discover", body)
		if status != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, status, data)
		}
		if out := decodeDiscover(t, data); !out.Cached {
			t.Errorf("repeat %d not served from cache", i)
		}
	}
	if hits := s.cache.Stats().Hits; hits == 0 {
		t.Error("no cache hits across repeated identical queries")
	}
}
