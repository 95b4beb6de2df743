package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/obs"
	"authteam/internal/repl"
	"authteam/internal/server"
)

// stackConfig selects the parts of the serving stack a workload boots.
type stackConfig struct {
	// journal enables the write-ahead journal (fsync off, as `teamdisc
	// serve` defaults it) and the background compactor at its default
	// 8192-record trigger.
	journal bool
	// follower adds an in-process follower replicating the leader over
	// HTTP, assembled as server.New assembles one for FollowURL.
	follower bool
}

// compactPoll is the background compactor's fallback poll cadence (its
// documented default). Folds are triggered by the journal watermark at
// 8192 records, not by this timer.
const compactPoll = 30 * time.Second

// stack is one booted serving stack: the leader behind a loopback
// listener, and optionally a follower store.
type stack struct {
	dir   string
	srv   *server.Server
	hs    *http.Server
	url   string
	serve chan error

	fstore   *live.Store
	follower *live.Follower
	fsrc     *tracedSource // nil unless traced

	client *http.Client // the load: at most two connections
	admin  *http.Client // scrapes and checks, outside timed phases
	setup  time.Duration
}

// bootStack writes the graph file into dir and boots a stack on it.
// The returned set-up time runs from server.New until the leader is
// ready and one warm-up discover per method has returned (and, with a
// follower, until it has adopted the leader's base): the cold start a
// restart pays, lazy index builds included.
func bootStack(c *corpus, dir string, cfg stackConfig, warm []discoverReq, rec *recorder) (*stack, error) {
	path, err := c.writeFile(dir)
	if err != nil {
		return nil, err
	}
	scfg := server.Config{
		Addr:      "127.0.0.1:0",
		GraphPath: path,
		WarmIndex: true,
	}
	if cfg.journal {
		scfg.JournalPath = filepath.Join(dir, "graph.wal")
		scfg.CompactInterval = compactPoll
	}
	st := &stack{
		dir: dir,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
		admin: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{DisableCompression: true}},
		serve: make(chan error, 1),
	}
	start := time.Now()
	st.srv, err = server.New(scfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { st.serve <- st.hs.Serve(ln) }()
	if err := st.waitReady(); err != nil {
		st.close()
		return nil, err
	}
	for _, r := range warm {
		if err := st.warmup(r); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s discover: %w", r.Method, err)
		}
	}
	if cfg.follower {
		if err := st.startFollower(rec); err != nil {
			st.close()
			return nil, err
		}
	}
	st.setup = time.Since(start)
	return st, nil
}

func (st *stack) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := st.admin.Get(st.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leader not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// startFollower assembles a follower the way server.New does for
// FollowURL — an empty store, an HTTP source claiming the store's term
// with its instruments, live.StartFollower — and waits for it to adopt
// the leader's base.
func (st *stack) startFollower(rec *recorder) error {
	empty, err := expertgraph.NewBuilder(0, 0).Build()
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	st.fstore, err = live.Open(empty, live.Config{Metrics: reg})
	if err != nil {
		return err
	}
	hsrc := repl.NewHTTPSource(st.url, nil).WithTerm(st.fstore.Term).Instrument(reg)
	var src live.ReplicationSource = hsrc
	if rec != nil {
		st.fsrc = &tracedSource{src: hsrc, rec: rec}
		src = st.fsrc
	}
	st.follower = live.StartFollower(st.fstore, src, live.FollowerConfig{})
	deadline := time.Now().Add(60 * time.Second)
	for st.fstore.BaseAdoptions() == 0 || st.fstore.Epoch() < st.srv.Store().Epoch() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not adopt the leader's base within 60s: %+v", st.follower.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// releaseFollower stops the follower and drops its store.
func (st *stack) releaseFollower() {
	if st.follower != nil {
		st.follower.Stop()
		st.follower = nil
	}
	if st.fstore != nil {
		st.fstore.Close()
		st.fstore = nil
	}
}

// close stops the follower, the listener and the server, and waits for
// each. Closing twice is harmless.
func (st *stack) close() {
	st.releaseFollower()
	if st.hs != nil {
		st.client.CloseIdleConnections()
		st.admin.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := st.hs.Shutdown(ctx); err != nil {
			st.hs.Close()
		}
		cancel()
		if err := <-st.serve; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve: %v", err)
		}
		st.hs = nil
	}
	if st.srv != nil {
		if err := st.srv.Close(); err != nil {
			logf("server close: %v", err)
		}
		st.srv = nil
	}
}

// httpError is an unexpected HTTP status.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request on the load client and returns the body, the
// X-Authteam-Trace header and the round trip.
func (st *stack) do(method, path string, body []byte, want int) ([]byte, string, time.Duration, error) {
	req, err := http.NewRequest(method, st.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, "", time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return nil, "", rt, err
	}
	if resp.StatusCode != want {
		return nil, "", rt, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(out))}
	}
	return out, resp.Header.Get("X-Authteam-Trace"), rt, nil
}

// warmup sends one set-up discover and checks that it got teams.
func (st *stack) warmup(r discoverReq) error {
	out, _, _, err := st.do(http.MethodPost, "/v1/discover", encode(r), http.StatusOK)
	if err != nil {
		return err
	}
	var resp server.DiscoverResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("decode discover reply: %w", err)
	}
	if len(resp.Teams) == 0 {
		return fmt.Errorf("no team for %v", r)
	}
	return nil
}

// counters is one scrape of the leader's /stats and /metrics.
type counters struct {
	stats   server.StatsResponse
	metrics map[string]float64 // sample name → value, summed over labels
}

func (st *stack) scrape() (counters, error) {
	var c counters
	resp, err := st.admin.Get(st.url + "/stats")
	if err != nil {
		return c, err
	}
	err = json.NewDecoder(resp.Body).Decode(&c.stats)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("decode /stats: %w", err)
	}
	resp, err = st.admin.Get(st.url + "/metrics")
	if err != nil {
		return c, err
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("parse /metrics: %w", err)
	}
	c.metrics = make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			c.metrics[s.Name] += s.Value
		}
	}
	return c, nil
}
