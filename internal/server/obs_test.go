package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"authteam/internal/obs"
	"authteam/internal/repl"
)

// scrapeFamilies fetches and parses url's /metrics exposition, keyed
// by family name.
func scrapeFamilies(t *testing.T, url string) map[string]obs.Family {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	out := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

// sampleValue returns the value of the family sample matching name and
// all given label pairs, and whether one exists.
func sampleValue(f obs.Family, name string, labels map[string]string) (float64, bool) {
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// TestMetricsEndpointLeader drives a leader through a discover and a
// mutation, then asserts the exposition parses and carries the core
// families with the expected movement.
func TestMetricsEndpointLeader(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) {
		cfg.JournalPath = filepath.Join(t.TempDir(), "graph.wal")
	})
	status, data := postJSON(t, ts.URL+"/v1/discover", discoverBody)
	if status != http.StatusOK {
		t.Fatalf("discover: %d: %s", status, data)
	}
	status, data = postJSON(t, ts.URL+"/v1/graph/nodes",
		`{"name": "frank", "authority": 8, "skills": ["analytics"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add node: %d: %s", status, data)
	}

	fams := scrapeFamilies(t, ts.URL)
	for _, want := range []string{
		"authteam_http_requests_total",
		"authteam_http_request_seconds",
		"authteam_discover_total",
		"authteam_discover_seconds",
		"authteam_mutations_total",
		"authteam_live_apply_seconds",
		"authteam_live_journal_append_seconds",
		"authteam_live_fold_seconds",
		"authteam_live_overlay_build_seconds",
		"authteam_live_log_len",
		"authteam_live_epoch",
		"authteam_index_repair_seconds",
		"authteam_index_rebuild_seconds",
		"authteam_index_rebuild_queue_depth",
		"authteam_index_rebuild_workers",
		"authteam_index_repairs_total",
		"authteam_index_rebuilds_total",
		"authteam_cache_hits_total",
		"authteam_cache_size",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}

	// Per-route request latency moved for the discover route.
	if n, ok := sampleValue(fams["authteam_http_request_seconds"],
		"authteam_http_request_seconds_count", map[string]string{"route": "discover"}); !ok || n < 1 {
		t.Errorf("discover route latency count = %v (ok=%v), want >= 1", n, ok)
	}
	if n, ok := sampleValue(fams["authteam_http_requests_total"],
		"authteam_http_requests_total", map[string]string{"route": "add_node", "code": "201"}); !ok || n != 1 {
		t.Errorf("add_node 201 count = %v (ok=%v), want 1", n, ok)
	}
	// The applied mutation moved the store instruments.
	if n, ok := sampleValue(fams["authteam_live_apply_seconds"],
		"authteam_live_apply_seconds_count", nil); !ok || n != 1 {
		t.Errorf("live apply count = %v (ok=%v), want 1", n, ok)
	}
	if n, ok := sampleValue(fams["authteam_live_journal_append_seconds"],
		"authteam_live_journal_append_seconds_count", nil); !ok || n != 1 {
		t.Errorf("journal append count = %v (ok=%v), want 1", n, ok)
	}
	if n, ok := sampleValue(fams["authteam_live_epoch"], "authteam_live_epoch", nil); !ok || n != 1 {
		t.Errorf("live epoch = %v (ok=%v), want 1", n, ok)
	}

	// /stats is re-derived from the same registry, so the two surfaces
	// must agree on the query counter.
	st := getStats(t, ts.URL)
	if reg, ok := sampleValue(fams["authteam_discover_total"],
		"authteam_discover_total", map[string]string{"method": "sa-ca-cc", "outcome": "ok"}); !ok || uint64(reg) != st.Queries {
		t.Errorf("registry discover ok = %v, /stats queries = %d", reg, st.Queries)
	}
	if st.Latency.Window != 1 || st.Latency.WindowFull {
		t.Errorf("latency window = %d full=%v, want 1/false", st.Latency.Window, st.Latency.WindowFull)
	}
}

// TestMetricsEndpointFollower checks a live follower exposes the
// replication families.
func TestMetricsEndpointFollower(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "frank", "authority": 8, "skills": ["analytics"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add node: %d: %s", status, data)
	}
	fs, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)
	// The follower counts a tail group as applied once ApplyGroup
	// returns, a moment after the epoch newFollowerServer waited for
	// is published; wait for the count before scraping it.
	deadline := time.Now().Add(15 * time.Second)
	for st, _ := fs.node.FollowerStats(); st.Applied == 0; st, _ = fs.node.FollowerStats() {
		if time.Now().After(deadline) {
			t.Fatalf("follower at epoch %d never counted an applied record: %+v", fs.store.Epoch(), st)
		}
		time.Sleep(time.Millisecond)
	}

	fams := scrapeFamilies(t, fts.URL)
	for _, want := range []string{
		"authteam_replication_lag_epochs",
		"authteam_replication_lag_seconds",
		"authteam_replication_polls_total",
		"authteam_replication_applied_total",
		"authteam_replication_base_fetches_total",
		"authteam_replication_tail_roundtrip_seconds",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %s missing from follower exposition", want)
		}
	}
	if lag, ok := sampleValue(fams["authteam_replication_lag_epochs"],
		"authteam_replication_lag_epochs", nil); !ok || lag != 0 {
		t.Errorf("caught-up follower lag = %v (ok=%v), want 0", lag, ok)
	}
	if n, ok := sampleValue(fams["authteam_replication_applied_total"],
		"authteam_replication_applied_total", nil); !ok || n < 1 {
		t.Errorf("applied = %v (ok=%v), want >= 1", n, ok)
	}
}

func getReadyz(t *testing.T, url string) (int, ReadyzResponse) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ReadyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("decode readyz: %v (%s)", err, body)
	}
	return resp.StatusCode, out
}

// TestReadyzLeader: a serving leader is always ready.
func TestReadyzLeader(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, out := getReadyz(t, ts.URL)
	if code != http.StatusOK || !out.Ready || out.Role != "leader" {
		t.Fatalf("leader readyz = %d %+v", code, out)
	}
}

// TestReadyzFollowerLag puts a gated proxy between a real leader and
// a follower: while the gate starves the tail (reporting the leader's
// epoch but shipping no records) the follower's lag crosses the
// threshold and /readyz must degrade to 503; once the gate opens the
// follower drains the log and readiness returns.
func TestReadyzFollowerLag(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	for i := 0; i < 20; i++ {
		status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
			fmt.Sprintf(`{"name": "expert-%d", "authority": 5, "skills": ["analytics"]}`, i))
		if status != http.StatusCreated {
			t.Fatalf("add node %d: %d: %s", i, status, data)
		}
	}

	var gate atomic.Bool // false: starve the tail
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/journal/tail" && !gate.Load() {
			from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
			// A leader whose log the follower cannot drain: report
			// the true epoch, ship nothing.
			if err := repl.WriteTail(w, from, ls.store.Epoch(), 0, nil); err != nil {
				t.Errorf("write tail: %v", err)
			}
			return
		}
		resp, err := http.Get(lts.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	_, fts := newTestServer(t, func(cfg *Config) {
		cfg.Graph = nil
		cfg.FollowURL = proxy.URL
		cfg.FollowPoll = 50 * time.Millisecond
		cfg.ReadyMaxLagEpochs = 10
	})

	waitFor := func(wantCode int, what string) ReadyzResponse {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			code, out := getReadyz(t, fts.URL)
			if code == wantCode {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: readyz stuck at %d %+v, want %d", what, code, out, wantCode)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	out := waitFor(http.StatusServiceUnavailable, "lagged")
	if out.Ready || out.Role != "follower" || out.LagEpochs <= 10 || out.Reason == "" {
		t.Fatalf("degraded readyz = %+v", out)
	}

	gate.Store(true)
	out = waitFor(http.StatusOK, "recovered")
	if !out.Ready || out.LagEpochs != 0 || out.Reason != "" {
		t.Fatalf("recovered readyz = %+v", out)
	}
}

// TestTraceEndToEnd checks the X-Authteam-Trace header and the
// ?debug=trace span section: stages must partition the total.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/discover?debug=trace", "application/json",
		jsonBody(discoverBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if h := resp.Header.Get("X-Authteam-Trace"); h == "" {
		t.Error("X-Authteam-Trace header missing")
	}
	out := decodeDiscover(t, data)
	if out.Trace == nil || len(out.Trace.Spans) == 0 {
		t.Fatalf("no trace section in %s", data)
	}
	var sum float64
	stages := make(map[string]bool)
	for _, sp := range out.Trace.Spans {
		sum += sp.MS
		stages[sp.Stage] = true
	}
	if d := math.Abs(sum - out.Trace.TotalMS); d > 0.01+0.001*out.Trace.TotalMS {
		t.Errorf("spans sum to %.4fms, total %.4fms", sum, out.Trace.TotalMS)
	}
	for _, want := range []string{"resolve", "fit", "index", "search", "merge", "score"} {
		if !stages[want] {
			t.Errorf("stage %q missing from trace %s", want, data)
		}
	}

	// Repeat without debug: header still set, no body section.
	resp2, err := http.Post(ts.URL+"/v1/discover", "application/json", jsonBody(discoverBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data2, _ := io.ReadAll(resp2.Body)
	if h := resp2.Header.Get("X-Authteam-Trace"); h == "" {
		t.Error("header missing on plain request")
	}
	out2 := decodeDiscover(t, data2)
	if out2.Trace != nil {
		t.Errorf("trace section leaked into a non-debug response: %s", data2)
	}
	if !out2.Cached {
		t.Error("second identical query not served from cache")
	}
}

// TestNoObserve checks the kill switch: no tracing, no route
// histograms, while /stats keeps counting.
func TestNoObserve(t *testing.T) {
	_, ts := newTestServer(t, func(cfg *Config) { cfg.NoObserve = true })
	resp, err := http.Post(ts.URL+"/v1/discover?debug=trace", "application/json",
		jsonBody(discoverBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if h := resp.Header.Get("X-Authteam-Trace"); h != "" {
		t.Errorf("trace header %q with observation off", h)
	}
	out := decodeDiscover(t, data)
	if out.Trace != nil {
		t.Errorf("trace section with observation off: %s", data)
	}
	fams := scrapeFamilies(t, ts.URL)
	if _, ok := fams["authteam_http_request_seconds"]; ok {
		t.Error("route histogram registered with observation off")
	}
	if _, ok := fams["authteam_discover_total"]; !ok {
		t.Error("discover counter missing: /stats backing must survive NoObserve")
	}
	if st := getStats(t, ts.URL); st.Queries != 1 {
		t.Errorf("stats queries = %d, want 1", st.Queries)
	}
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }
