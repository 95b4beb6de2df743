package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noRedirect returns a client that surfaces 3xx responses instead of
// following them, so tests can assert on the redirect itself.
func noRedirect() *http.Client {
	return &http.Client{
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// newFollowerServer spins up a follower of leaderURL and waits for it
// to catch up to epoch.
func newFollowerServer(t *testing.T, leaderURL string, epoch uint64, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	fs, fts := newTestServer(t, func(cfg *Config) {
		cfg.Graph = nil
		cfg.FollowURL = leaderURL
		cfg.FollowPoll = 200 * time.Millisecond
		if mutate != nil {
			mutate(cfg)
		}
	})
	waitServerEpoch(t, fs, epoch)
	return fs, fts
}

func waitServerEpoch(t *testing.T, s *Server, epoch uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if !s.store.WaitEpoch(ctx, epoch) {
		t.Fatalf("follower stuck at epoch %d, want %d", s.store.Epoch(), epoch)
	}
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// discoverBody asks for all three skills of the builder graph.
const discoverBody = `{"skills": ["analytics", "matrix", "communities"], "method": "sa-ca-cc", "k": 2}`

// neutralize zeroes the per-request fields so leader and follower
// responses can be compared byte-for-byte.
func neutralize(out *DiscoverResponse) {
	out.ElapsedMS = 0
	out.Cached = false
}

func discoverAt(t *testing.T, url string) DiscoverResponse {
	t.Helper()
	status, data := postJSON(t, url+"/v1/discover", discoverBody)
	if status != http.StatusOK {
		t.Fatalf("discover at %s: status %d: %s", url, status, data)
	}
	out := decodeDiscover(t, data)
	neutralize(&out)
	return out
}

// TestFollowerServesIdenticalTeams bootstraps a follower over HTTP
// from a live leader and checks the read API agrees byte-for-byte.
func TestFollowerServesIdenticalTeams(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	// Mutate the leader so the follower has a stream to replay, not
	// just a base.
	status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "frank", "authority": 8, "skills": ["analytics", "communities"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add node: %d: %s", status, data)
	}
	status, data = postJSON(t, lts.URL+"/v1/graph/edges", `{"u": 5, "v": 3, "w": 0.7}`)
	if status != http.StatusCreated {
		t.Fatalf("add edge: %d: %s", status, data)
	}

	_, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)

	want, err := json.Marshal(discoverAt(t, lts.URL))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(discoverAt(t, fts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("follower answer differs:\nleader   %s\nfollower %s", want, got)
	}

	st := getStats(t, fts.URL)
	if st.Replication.Role != "follower" || st.Replication.Follower == nil {
		t.Fatalf("follower /stats replication section: %+v", st.Replication)
	}
	if st.Replication.Follower.BaseFetches < 1 {
		t.Fatalf("bootstrap did not fetch the base: %+v", st.Replication.Follower)
	}
	if lst := getStats(t, lts.URL); lst.Replication.Role != "leader" || lst.Replication.BaseRequests < 1 || lst.Replication.TailRequests < 1 {
		t.Fatalf("leader /stats replication section: %+v", lst.Replication)
	}
}

// TestFollowerRedirectsMutations checks every mutation verb answers
// 307 with a Location on the leader.
func TestFollowerRedirectsMutations(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	_, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)
	hc := noRedirect()

	cases := []struct{ method, path, body string }{
		{"POST", "/v1/graph/nodes", `{"name": "x", "authority": 1}`},
		{"POST", "/v1/graph/edges", `{"u": 0, "v": 1, "w": 0.5}`},
		{"PATCH", "/v1/graph/nodes/1", `{"add_skills": ["s"]}`},
		{"PATCH", "/v1/graph/edges", `{"u": 0, "v": 3, "w": 0.9}`},
		{"DELETE", "/v1/graph/edges", `{"u": 0, "v": 3}`},
		{"DELETE", "/v1/graph/nodes/4", ``},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, fts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		loc := resp.Header.Get("Location")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("%s %s: status %d, want 307", tc.method, tc.path, resp.StatusCode)
		}
		if want := lts.URL + tc.path; loc != want {
			t.Fatalf("%s %s: Location %q, want %q", tc.method, tc.path, loc, want)
		}
	}
}

// TestReadYourWrites exercises the X-Authteam-Min-Epoch gate: a read
// echoing a mutation's epoch must never observe an older graph.
func TestReadYourWrites(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	_, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)

	status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "gina", "authority": 6, "skills": ["matrix"]}`)
	if status != http.StatusCreated {
		t.Fatalf("add node: %d: %s", status, data)
	}
	var mr MutationResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}

	// A satisfied gate: the follower waits (or is already there) and
	// answers at >= the echoed epoch.
	req, _ := http.NewRequest("POST", fts.URL+"/v1/discover", strings.NewReader(discoverBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Authteam-Min-Epoch", fmt.Sprint(mr.Epoch))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated read: %d: %s", resp.StatusCode, body)
	}
	if out := decodeDiscover(t, body); out.Epoch < mr.Epoch {
		t.Fatalf("gated read answered at epoch %d < min %d", out.Epoch, mr.Epoch)
	}

	// An unreachable gate: a behind follower redirects to the leader
	// rather than serving stale state (short wait bound keeps the test
	// fast).
	_, fts2 := newFollowerServer(t, lts.URL, ls.store.Epoch(), func(cfg *Config) {
		cfg.MinEpochWait = 50 * time.Millisecond
	})
	req2, _ := http.NewRequest("POST", fts2.URL+"/v1/discover", strings.NewReader(discoverBody))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("X-Authteam-Min-Epoch", fmt.Sprint(ls.store.Epoch()+1000))
	resp2, err := noRedirect().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("unreachable gate on follower: %d, want 307", resp2.StatusCode)
	}

	// The same unreachable gate on the leader is a hard 409 — there is
	// nowhere fresher to go.
	ls2, lts2 := newTestServer(t, func(cfg *Config) {
		cfg.MinEpochWait = 50 * time.Millisecond
	})
	req3, _ := http.NewRequest("POST", lts2.URL+"/v1/discover", strings.NewReader(discoverBody))
	req3.Header.Set("Content-Type", "application/json")
	req3.Header.Set("X-Authteam-Min-Epoch", fmt.Sprint(ls2.store.Epoch()+1000))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("unreachable gate on leader: %d, want 409", resp3.StatusCode)
	}

	// A malformed header is the client's fault.
	req4, _ := http.NewRequest("POST", lts.URL+"/v1/discover", strings.NewReader(discoverBody))
	req4.Header.Set("Content-Type", "application/json")
	req4.Header.Set("X-Authteam-Min-Epoch", "banana")
	resp4, err := http.DefaultClient.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage min-epoch header: %d, want 400", resp4.StatusCode)
	}
}

// TestFollowerCatchUpAcrossFold restarts a follower after the leader
// has folded its journal past the follower's epoch: the restart must
// adopt the leader's base and converge instead of erroring on the
// compacted gap.
func TestFollowerCatchUpAcrossFold(t *testing.T) {
	dir := t.TempDir()
	ls, lts := newTestServer(t, func(cfg *Config) {
		cfg.JournalPath = filepath.Join(dir, "leader.wal")
	})

	fdir := t.TempDir()
	fcfg := func(cfg *Config) { cfg.JournalPath = filepath.Join(fdir, "follower.wal") }
	fs, _ := newFollowerServer(t, lts.URL, ls.store.Epoch(), fcfg)
	behind := fs.store.Epoch()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down: churn, fold, churn, fold — two folds
	// push the retained window past the follower.
	rng := rand.New(rand.NewSource(80))
	churn := func(n int) {
		for i := 0; i < n; i++ {
			postJSON(t, lts.URL+"/v1/graph/nodes",
				fmt.Sprintf(`{"name": "n%d", "authority": %d, "skills": ["analytics"]}`, i, 1+rng.Intn(9)))
		}
	}
	churn(8)
	if _, err := ls.store.Compact(); err != nil {
		t.Fatal(err)
	}
	churn(8)
	if _, err := ls.store.Compact(); err != nil {
		t.Fatal(err)
	}
	churn(4)
	if _, ok := ls.store.Snapshot().MutationsSince(behind); ok {
		t.Fatal("test setup: follower epoch still inside the leader's retained window")
	}

	fs2, fts2 := newFollowerServer(t, lts.URL, ls.store.Epoch(), fcfg)
	defer fs2.Close()

	want, _ := json.Marshal(discoverAt(t, lts.URL))
	got, _ := json.Marshal(discoverAt(t, fts2.URL))
	if string(want) != string(got) {
		t.Fatalf("post-fold follower answer differs:\nleader   %s\nfollower %s", want, got)
	}
	st := getStats(t, fts2.URL)
	if st.Replication.Follower == nil || st.Replication.Follower.BaseFetches < 1 {
		t.Fatalf("fold catch-up did not fetch the base: %+v", st.Replication)
	}
	if st.Live.BaseAdoptions < 1 {
		t.Fatalf("fold catch-up did not adopt the base: %+v", st.Live)
	}
}

// tearingProxy forwards to target but cuts /v1/journal/tail response
// bodies mid-stream every other request, exercising the follower's
// torn-tail handling over real HTTP.
func tearingProxy(t *testing.T, target string) *httptest.Server {
	t.Helper()
	var n atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(target + r.URL.RequestURI())
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		tear := strings.HasPrefix(r.URL.Path, "/v1/journal/tail") &&
			n.Add(1)%2 == 0 && len(body) > 40
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if tear {
			// Drop the tail of the body and kill the connection so
			// the follower sees a truncated ndjson stream.
			w.Write(body[:len(body)-25])
			panic(http.ErrAbortHandler)
		}
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFollowerSurvivesTornTail replicates through a proxy that tears
// every other tail response mid-record: the follower must apply each
// intact prefix and converge anyway.
func TestFollowerSurvivesTornTail(t *testing.T) {
	ls, lts := newTestServer(t, nil)
	proxy := tearingProxy(t, lts.URL)

	for i := 0; i < 12; i++ {
		status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
			fmt.Sprintf(`{"name": "t%d", "authority": 5, "skills": ["matrix"]}`, i))
		if status != http.StatusCreated {
			t.Fatalf("add node: %d: %s", status, data)
		}
	}

	fs, fts := newFollowerServer(t, proxy.URL, ls.store.Epoch(), nil)
	want, _ := json.Marshal(discoverAt(t, lts.URL))
	got, _ := json.Marshal(discoverAt(t, fts.URL))
	if string(want) != string(got) {
		t.Fatalf("follower behind tearing proxy differs:\nleader   %s\nfollower %s", want, got)
	}
	if fs.store.Epoch() != ls.store.Epoch() {
		t.Fatalf("follower epoch %d, leader %d", fs.store.Epoch(), ls.store.Epoch())
	}
}

// TestReplicationSoak is the end-to-end race-shard test: a leader with
// a fast background compactor under a continuous write stream, a
// follower bootstrapped from nothing over HTTP, and concurrent gated
// reads on the follower asserting read-your-writes while folds move
// the log underneath it.
func TestReplicationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := t.TempDir()
	ls, lts := newTestServer(t, func(cfg *Config) {
		cfg.JournalPath = filepath.Join(dir, "leader.wal")
		cfg.CompactThreshold = 200
		cfg.CompactInterval = 50 * time.Millisecond
	})
	// Seed one write so the catch-up wait is for a non-zero epoch —
	// WaitEpoch(0) is trivially true on a not-yet-bootstrapped store.
	if status, data := postJSON(t, lts.URL+"/v1/graph/nodes",
		`{"name": "seed", "authority": 5, "skills": ["analytics"]}`); status != http.StatusCreated {
		t.Fatalf("seed write: %d: %s", status, data)
	}
	fs, fts := newFollowerServer(t, lts.URL, ls.store.Epoch(), nil)
	defer fs.Close()

	const writes = 1500
	var lastEpoch atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: a steady mutation stream against the leader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(81))
		for i := 0; i < writes; i++ {
			var status int
			var data []byte
			switch rng.Intn(4) {
			case 0:
				status, data = postJSON(t, lts.URL+"/v1/graph/nodes",
					fmt.Sprintf(`{"name": "s%d", "authority": %d, "skills": ["s%d"]}`, i, 1+rng.Intn(20), rng.Intn(6)))
			case 1:
				status, data = postJSON(t, lts.URL+"/v1/graph/edges",
					fmt.Sprintf(`{"u": %d, "v": %d, "w": 0.5}`, rng.Intn(5), 5+rng.Intn(3)))
			default:
				status, data = postJSON(t, lts.URL+"/v1/graph/edges",
					fmt.Sprintf(`{"u": %d, "v": %d, "w": %.2f}`, rng.Intn(8), rng.Intn(8), 0.1+0.8*rng.Float64()))
			}
			// Rejections (dup edges, self-loops) are fine; anything
			// else is not.
			if status < 300 {
				var mr MutationResponse
				if err := json.Unmarshal(data, &mr); err == nil && mr.Epoch > lastEpoch.Load() {
					lastEpoch.Store(mr.Epoch)
				}
			} else if status >= 500 {
				t.Errorf("write %d: status %d: %s", i, status, data)
				return
			}
			// Pace the stream so the readers interleave with real
			// epoch churn instead of racing a burst.
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: gated discovers on the follower echoing the freshest
	// observed epoch — the response must never be older.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				min := lastEpoch.Load()
				req, _ := http.NewRequest("POST", fts.URL+"/v1/discover", strings.NewReader(discoverBody))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Authteam-Min-Epoch", fmt.Sprint(min))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("gated read: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// The gate may redirect to the leader if the follower
				// lags past the wait bound; DefaultClient follows it,
				// so a 200 is the only acceptable outcome either way.
				if resp.StatusCode != http.StatusOK {
					t.Errorf("gated read at min %d: status %d: %s", min, resp.StatusCode, body)
					return
				}
				var out DiscoverResponse
				if err := json.Unmarshal(body, &out); err != nil {
					t.Errorf("gated read decode: %v", err)
					return
				}
				if out.Epoch < min {
					t.Errorf("read-your-writes violated: answered at %d, min %d", out.Epoch, min)
					return
				}
			}
		}()
	}

	// Wait for the writer, then let the follower drain.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for lastEpoch.Load() == 0 || ls.store.Epoch() > lastEpoch.Load() {
			time.Sleep(10 * time.Millisecond)
			if t.Failed() {
				return
			}
		}
	}()
	<-writerDone
	waitServerEpoch(t, fs, ls.store.Epoch())
	close(stop)
	<-done
	if t.Failed() {
		t.FailNow()
	}
	// writerDone can fire between two writes while the writer is still
	// running, so the writer's last writes land after the wait above:
	// let the follower apply them too before comparing.
	waitServerEpoch(t, fs, ls.store.Epoch())

	// Convergence: byte-identical answers at the same epoch.
	want, _ := json.Marshal(discoverAt(t, lts.URL))
	got, _ := json.Marshal(discoverAt(t, fts.URL))
	if string(want) != string(got) {
		t.Fatalf("soak divergence:\nleader   %s\nfollower %s", want, got)
	}

	// Deterministic repair epilogue: with the burst over, single-epoch
	// deltas must ride the resident cover incrementally — one write,
	// one catch-up, one read, one repair (timing-independent, unlike
	// the counters under the concurrent stream above).
	for i := 0; i < 5; i++ {
		status, data := postJSON(t, lts.URL+"/v1/graph/edges",
			fmt.Sprintf(`{"u": %d, "v": %d, "w": 0.3}`, i, 5+i))
		if status >= 500 {
			t.Fatalf("epilogue write %d: %d: %s", i, status, data)
		}
		waitServerEpoch(t, fs, ls.store.Epoch())
		discoverAt(t, fts.URL)
	}

	lst := getStats(t, lts.URL)
	fst := getStats(t, fts.URL)
	if lst.Live.Compactions < 1 {
		t.Errorf("leader never folded under the soak: %+v", lst.Live.Compactor)
	}
	if fst.Replication.Follower == nil || !fst.Replication.Follower.Running {
		t.Fatalf("follower loop not running at soak end: %+v", fst.Replication)
	}
	if fst.Replication.Follower.Applied == 0 {
		t.Error("follower applied nothing — bootstrap served the whole stream?")
	}
	// The follower's cover must ride the stream incrementally: full
	// rebuilds bounded while repairs land. Reads arriving while a
	// repair holds the build latch fall back to Dijkstra uncounted, so
	// the repair count is wall-clock-bound — assert presence, not rate.
	if fst.Live.IncrementalRepairs < 3 {
		t.Errorf("follower incremental repairs = %d, want a climbing counter", fst.Live.IncrementalRepairs)
	}
	if fst.Live.FullRebuilds > 10 {
		t.Errorf("follower full rebuilds = %d during steady replication, want a flat counter", fst.Live.FullRebuilds)
	}
}
