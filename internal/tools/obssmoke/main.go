// Command obssmoke is the CI smoke check for the observability layer:
// it boots a real leader/follower pair with teamdisc-equivalent
// configuration (ListenAndServe, debug listener, journal), drives
// mutations and discoveries through HTTP, and then fails loudly
// unless
//
//   - /metrics parses as well-formed Prometheus text exposition on
//     both nodes (via the strict internal parser),
//   - the core metric families are present on each node for its role
//     (request latency by route, live apply/journal timings, index
//     maintenance, replication lag on the follower),
//   - traced discoveries carry the X-Authteam-Trace header and a
//     ?debug=trace span section that sums to the reported total,
//   - /readyz answers 200 on the leader and on the caught-up
//     follower, and
//   - the debug listener serves the pprof index.
//
// It is an end-to-end check, not a unit test: everything runs over
// real TCP listeners exactly as a deployment would.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"authteam/internal/dblp"
	"authteam/internal/obs"
	"authteam/internal/server"
	"authteam/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obssmoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// freeAddr reserves a loopback port and releases it for the server to
// claim. The tiny race window is acceptable in CI.
func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("reserve port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHTTP(url string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			fail("%s not up after %v (last err: %v)", url, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postJSON(url, body string) (int, string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		fail("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("read %s: %v", url, err)
	}
	return resp.StatusCode, string(data)
}

// scrape fetches and strictly parses url's exposition, failing the run
// on any malformation.
func scrape(node, url string) map[string]obs.Family {
	resp, err := http.Get(url)
	if err != nil {
		fail("%s: GET %s: %v", node, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("%s: %s returned %d", node, url, resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		fail("%s: malformed exposition at %s: %v", node, url, err)
	}
	out := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

func requireFamilies(node string, fams map[string]obs.Family, names ...string) {
	for _, n := range names {
		if _, ok := fams[n]; !ok {
			fail("%s: core family %s missing from /metrics", node, n)
		}
	}
}

func checkTrace(node, base string, skills []string) {
	names, _ := json.Marshal(skills)
	body := fmt.Sprintf(`{"skills": %s, "method": "sa-ca-cc", "k": 2}`, names)
	resp, err := http.Post(base+"/v1/discover?debug=trace", "application/json", strings.NewReader(body))
	if err != nil {
		fail("%s: traced discover: %v", node, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	data := string(raw)
	if resp.StatusCode != http.StatusOK {
		fail("%s: traced discover status %d: %s", node, resp.StatusCode, data)
	}
	if resp.Header.Get("X-Authteam-Trace") == "" {
		fail("%s: X-Authteam-Trace header missing", node)
	}
	var out struct {
		Trace *struct {
			TotalMS float64 `json:"total_ms"`
			Spans   []struct {
				Stage string  `json:"stage"`
				MS    float64 `json:"ms"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(data), &out); err != nil {
		fail("%s: decode traced discover: %v", node, err)
	}
	if out.Trace == nil || len(out.Trace.Spans) == 0 {
		fail("%s: no trace section in %s", node, data)
	}
	sum := 0.0
	for _, sp := range out.Trace.Spans {
		sum += sp.MS
	}
	if d := math.Abs(sum - out.Trace.TotalMS); d > 0.01+0.001*out.Trace.TotalMS {
		fail("%s: trace spans sum to %.4fms, total %.4fms", node, sum, out.Trace.TotalMS)
	}
}

func checkReadyz(node, base string) {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		fail("%s: readyz: %v", node, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("%s: readyz %d: %s", node, resp.StatusCode, data)
	}
}

func main() {
	dir, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		fail("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)

	corpus := dblp.Synthesize(dblp.SynthConfig{Seed: 7, Authors: 300})
	g, _, err := dblp.BuildGraph(corpus, dblp.GraphOptions{LargestComponent: true})
	if err != nil {
		fail("build graph: %v", err)
	}
	gen, err := workload.NewGenerator(g, 11, workload.Options{MinHolders: 2})
	if err != nil {
		fail("workload generator: %v", err)
	}
	project, err := gen.Project(3)
	if err != nil {
		fail("sample project: %v", err)
	}
	skills := make([]string, 0, len(project))
	for _, sk := range project {
		skills = append(skills, g.SkillName(sk))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	lAddr, lDebug := freeAddr(), freeAddr()
	leader, err := server.New(server.Config{
		Addr:               lAddr,
		DebugAddr:          lDebug,
		Graph:              g,
		Workers:            4,
		CacheSize:          256,
		JournalPath:        filepath.Join(dir, "leader.wal"),
		SlowQueryThreshold: time.Nanosecond, // exercise the slow-query log path
	})
	if err != nil {
		fail("leader: %v", err)
	}
	go leader.ListenAndServe(ctx)
	lURL := "http://" + lAddr
	waitHTTP(lURL+"/healthz", 10*time.Second)

	// Churn: nodes and edges through the public mutation API, so the
	// apply/journal/repair instruments all move.
	for i := 0; i < 10; i++ {
		status, data := postJSON(lURL+"/v1/graph/nodes",
			fmt.Sprintf(`{"name": "smoke-%d", "authority": 5, "skills": [%q]}`, i, skills[0]))
		if status != http.StatusCreated {
			fail("leader: add node %d: %d: %s", i, status, data)
		}
	}

	fAddr := freeAddr()
	follower, err := server.New(server.Config{
		Addr:       fAddr,
		Graph:      nil,
		FollowURL:  lURL,
		FollowPoll: 200 * time.Millisecond,
		Workers:    4,
		CacheSize:  256,
	})
	if err != nil {
		fail("follower: %v", err)
	}
	go follower.ListenAndServe(ctx)
	fURL := "http://" + fAddr
	waitHTTP(fURL+"/healthz", 10*time.Second)
	waitHTTP(fURL+"/readyz", 15*time.Second) // 200 only once caught up

	// Traced discoveries on both nodes (the follower resolves the same
	// skill names against its replicated graph).
	checkTrace("leader", lURL, skills)
	checkTrace("follower", fURL, skills)

	coreFamilies := []string{
		"authteam_http_requests_total",
		"authteam_http_request_seconds",
		"authteam_discover_total",
		"authteam_discover_seconds",
		"authteam_live_apply_seconds",
		"authteam_live_journal_append_seconds",
		"authteam_live_fold_seconds",
		"authteam_live_overlay_build_seconds",
		"authteam_live_log_len",
		"authteam_live_epoch",
		"authteam_live_commit_batch_ops",
		"authteam_live_commit_seconds",
		"authteam_live_commits_total",
		"authteam_live_overlay_refolds_total",
		"authteam_live_overlay_chain_depth",
		"authteam_index_repair_seconds",
		"authteam_index_rebuild_seconds",
		"authteam_index_rebuild_queue_depth",
		"authteam_cache_hits_total",
		// Cluster-role families are exported on every role so a
		// dashboard can watch a node move through the state machine.
		"authteam_cluster_term",
		"authteam_cluster_role",
		"authteam_cluster_promotions_total",
		"authteam_cluster_fenced_total",
	}
	lf := scrape("leader", lURL+"/metrics")
	requireFamilies("leader", lf, coreFamilies...)
	requireFamilies("leader", lf,
		"authteam_journal_tail_requests_total",
		"authteam_journal_base_requests_total")

	ff := scrape("follower", fURL+"/metrics")
	requireFamilies("follower", ff, coreFamilies...)
	requireFamilies("follower", ff,
		"authteam_replication_lag_epochs",
		"authteam_replication_lag_seconds",
		"authteam_replication_polls_total",
		"authteam_replication_applied_total",
		"authteam_replication_tail_roundtrip_seconds")

	// The debug listener mirrors /metrics and serves pprof.
	dbg := scrape("leader-debug", "http://"+lDebug+"/metrics")
	requireFamilies("leader-debug", dbg, "authteam_http_requests_total")
	resp, err := http.Get("http://" + lDebug + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		fail("leader-debug: pprof index: err=%v status=%v", err, resp)
	}
	resp.Body.Close()

	checkReadyz("leader", lURL)
	checkReadyz("follower", fURL)

	// Failover drill: promote the follower and verify the role flip is
	// visible end to end — /v1/cluster/role, a locally-applied
	// mutation, and the cluster gauges on /metrics.
	status, data := postJSON(fURL+"/v1/cluster/promote", "{}")
	if status != http.StatusOK {
		fail("promote follower: %d: %s", status, data)
	}
	var ri struct {
		Role string `json:"role"`
		Term uint64 `json:"term"`
	}
	roleResp, err := http.Get(fURL + "/v1/cluster/role")
	if err != nil {
		fail("promoted role: %v", err)
	}
	if err := json.NewDecoder(roleResp.Body).Decode(&ri); err != nil {
		fail("decode promoted role: %v", err)
	}
	roleResp.Body.Close()
	if ri.Role != "leader" || ri.Term != 1 {
		fail("promoted node reports %+v, want leader at term 1", ri)
	}
	if status, data := postJSON(fURL+"/v1/graph/nodes",
		fmt.Sprintf(`{"name": "post-promotion", "authority": 5, "skills": [%q]}`, skills[0])); status != http.StatusCreated {
		fail("promoted node: local mutation: %d: %s", status, data)
	}
	pf := scrape("promoted", fURL+"/metrics")
	requireFamilies("promoted", pf, coreFamilies...)
	gauge := func(name string) float64 {
		fam, ok := pf[name]
		if !ok || len(fam.Samples) == 0 {
			fail("promoted: %s missing a sample", name)
		}
		return fam.Samples[0].Value
	}
	if v := gauge("authteam_cluster_term"); v != 1 {
		fail("promoted: cluster_term = %v, want 1", v)
	}
	if v := gauge("authteam_cluster_role"); v != 0 {
		fail("promoted: cluster_role = %v, want 0 (leader)", v)
	}
	if v := gauge("authteam_cluster_promotions_total"); v != 1 {
		fail("promoted: cluster_promotions_total = %v, want 1", v)
	}
	checkReadyz("promoted", fURL)

	fmt.Println("obssmoke: OK — exposition well-formed on leader, follower and debug listener; trace spans partition totals; readiness green; promotion flips role, term and gauges")
}
