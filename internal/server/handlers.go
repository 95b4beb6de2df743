package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/node"
	"authteam/internal/obs"
	"authteam/internal/oracle"
	"authteam/internal/repl"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// defaultMethod is the strategy applied when a request omits "method":
// SA-CA-CC, the paper's headline objective.
const defaultMethod = core.SACACC

// maxBatchSize bounds one batch request; larger sweeps should be
// split client-side so a single call cannot monopolize the daemon.
const maxBatchSize = 1024

// maxBodyBytes bounds a request body, so an oversized one is refused
// before it is decoded into memory. A full batch of maxBatchSize
// requests may spend 4 KiB on each.
const maxBodyBytes = 4 << 20

// maxK and maxTrials bound per-request work. Unbounded values are a
// denial-of-service vector: a huge k panics the top-k allocation in an
// unrecovered worker goroutine (killing the process), and a huge
// trials count pins a core long after the request has timed out.
const (
	maxK      = 100
	maxTrials = 1_000_000
)

// DiscoverRequest is the body of POST /v1/discover and one element of
// a batch. Omitted gamma/lambda fall back to the server defaults;
// omitted k means 1; trials and seed apply to the random baseline only.
type DiscoverRequest struct {
	Skills []string `json:"skills"`
	Method string   `json:"method,omitempty"` // cc | ca-cc | sa-ca-cc | random | exact | pareto
	Gamma  *float64 `json:"gamma,omitempty"`
	Lambda *float64 `json:"lambda,omitempty"`
	K      int      `json:"k,omitempty"`
	Trials int      `json:"trials,omitempty"`
	Seed   *int64   `json:"seed,omitempty"`
}

// MemberResult is one expert of a discovered team. Skills lists the
// project skills assigned to the member; connectors have none.
type MemberResult struct {
	Name      string   `json:"name"`
	Authority float64  `json:"authority"`
	Pubs      int      `json:"pubs"`
	Skills    []string `json:"skills,omitempty"`
}

// ScoreResult carries every objective of the paper evaluated on one
// team under the request's (γ, λ), on normalized scales.
type ScoreResult struct {
	CC     float64 `json:"cc"`
	CA     float64 `json:"ca"`
	SA     float64 `json:"sa"`
	CACC   float64 `json:"ca_cc"`
	SACACC float64 `json:"sa_ca_cc"`
}

// TeamResult is one discovered team.
type TeamResult struct {
	Root    string         `json:"root"`
	Size    int            `json:"size"`
	Members []MemberResult `json:"members"`
	Scores  ScoreResult    `json:"scores"`
}

// ParetoResult is one non-dominated team with its raw objective
// vector and the grid point that surfaced it.
type ParetoResult struct {
	CC     float64    `json:"cc"`
	CA     float64    `json:"ca"`
	SA     float64    `json:"sa"`
	Gamma  float64    `json:"gamma"`
	Lambda float64    `json:"lambda"`
	Team   TeamResult `json:"team"`
}

// DiscoverResponse is the reply to one discovery request. Exactly one
// of Teams and Pareto is populated, depending on the method. Epoch is
// the graph epoch the answer was computed against — mutations advance
// it, and a response (cached or not) always belongs to exactly one
// epoch.
type DiscoverResponse struct {
	Method    string         `json:"method"`
	Skills    []string       `json:"skills"`
	Gamma     float64        `json:"gamma"`
	Lambda    float64        `json:"lambda"`
	K         int            `json:"k"`
	Epoch     uint64         `json:"epoch"`
	Teams     []TeamResult   `json:"teams,omitempty"`
	Pareto    []ParetoResult `json:"pareto,omitempty"`
	Cached    bool           `json:"cached"`
	ElapsedMS float64        `json:"elapsed_ms"`
	// Trace is the per-stage timing breakdown, populated only when the
	// request asked for it with ?debug=trace (and tracing is enabled).
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceSpan is one pipeline stage of a traced discovery.
type TraceSpan struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// TraceInfo is the ?debug=trace section of a response. The spans
// partition the request's wall time, so their durations sum to
// TotalMS by construction.
type TraceInfo struct {
	TotalMS float64     `json:"total_ms"`
	Spans   []TraceSpan `json:"spans"`
}

// traceInfo converts a completed trace for the response payload; nil
// in, nil out.
func traceInfo(tr *obs.Trace) *TraceInfo {
	if tr == nil {
		return nil
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		return nil
	}
	info := &TraceInfo{TotalMS: float64(tr.Total()) / float64(time.Millisecond)}
	for _, sp := range spans {
		info.Spans = append(info.Spans, TraceSpan{
			Stage: sp.Stage,
			MS:    float64(sp.Dur) / float64(time.Millisecond),
		})
	}
	return info
}

// BatchRequest is the body of POST /v1/discover/batch.
type BatchRequest struct {
	Requests []DiscoverRequest `json:"requests"`
}

// BatchItem is the outcome of one batch element, at the same index as
// its request. Failed elements carry Error and a zero Response.
type BatchItem struct {
	Index    int               `json:"index"`
	Status   int               `json:"status"`
	Error    string            `json:"error,omitempty"`
	Response *DiscoverResponse `json:"response,omitempty"`
}

// BatchResponse is the reply to a batch request.
type BatchResponse struct {
	Results   []BatchItem `json:"results"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// httpError pairs a client-facing message with its status code. A
// non-empty location rides along as a Location header (redirects to
// the leader).
type httpError struct {
	status   int
	msg      string
	location string
	// term, when non-nil, is emitted as the X-Authteam-Term header so a
	// fenced (412) reply tells the peer which term rejected it.
	term *uint64
}

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// query is a normalized, validated discovery request: skills resolved
// and deduplicated, defaults applied. Two requests that normalize to
// the same query share one cache entry.
type query struct {
	methodName string
	method     core.Method
	project    []expertgraph.SkillID
	names      []string // skill names in project (SkillID) order
	gamma      float64
	lambda     float64
	k          int
	trials     int
	seed       int64
}

// normalize validates req against the request's graph view and the
// server defaults.
func (s *Server) normalize(g expertgraph.GraphView, req *DiscoverRequest) (*query, *httpError) {
	if len(req.Skills) == 0 {
		return nil, errf(http.StatusBadRequest, "missing skills")
	}
	seen := make(map[expertgraph.SkillID]bool, len(req.Skills))
	q := &query{
		gamma:  s.gamma,
		lambda: s.lambda,
		k:      1,
		trials: core.DefaultRandomTrials,
		seed:   1,
	}
	for _, name := range req.Skills {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, errf(http.StatusBadRequest, "empty skill name")
		}
		id, ok := g.SkillID(name)
		if !ok {
			return nil, errf(http.StatusBadRequest, "unknown skill %q", name)
		}
		if !seen[id] {
			seen[id] = true
			q.project = append(q.project, id)
		}
	}
	sort.Slice(q.project, func(i, j int) bool { return q.project[i] < q.project[j] })
	for _, id := range q.project {
		q.names = append(q.names, g.SkillName(id))
	}

	q.methodName = req.Method
	if q.methodName == "" {
		q.methodName = "sa-ca-cc"
	}
	switch q.methodName {
	case "cc":
		q.method = core.CC
	case "ca-cc":
		q.method = core.CACC
	case "sa-ca-cc":
		q.method = core.SACACC
	case "random", "exact", "pareto":
	default:
		return nil, errf(http.StatusBadRequest, "unknown method %q", q.methodName)
	}

	if req.Gamma != nil {
		q.gamma = *req.Gamma
	}
	if req.Lambda != nil {
		q.lambda = *req.Lambda
	}
	if q.gamma < 0 || q.gamma > 1 {
		return nil, errf(http.StatusBadRequest, "gamma %v out of [0,1]", q.gamma)
	}
	if q.lambda < 0 || q.lambda > 1 {
		return nil, errf(http.StatusBadRequest, "lambda %v out of [0,1]", q.lambda)
	}
	if req.K < 0 || req.K > maxK {
		return nil, errf(http.StatusBadRequest, "k must be in 1..%d", maxK)
	}
	if req.K > 0 {
		q.k = req.K
	}
	if req.Trials < 0 || req.Trials > maxTrials {
		return nil, errf(http.StatusBadRequest, "trials must be in 1..%d", maxTrials)
	}
	if req.Trials > 0 {
		q.trials = req.Trials
	}
	if req.Seed != nil {
		q.seed = *req.Seed
	}
	return q, nil
}

// cacheKey canonically encodes the parameters the normalized query's
// method actually reads — pareto sweeps its own grid (γ, λ and k are
// ignored), and random/exact return a single team (k is ignored) — so
// requests differing only in ignored fields share one entry. Every
// method is deterministic given this key (random is seeded), so equal
// keys imply equal responses.
func (q *query) cacheKey() string {
	var b strings.Builder
	switch q.methodName {
	case "pareto":
		b.WriteString("pareto")
	case "random":
		fmt.Fprintf(&b, "random|g%.9g|l%.9g|t%d|s%d", q.gamma, q.lambda, q.trials, q.seed)
	case "exact":
		fmt.Fprintf(&b, "exact|g%.9g|l%.9g", q.gamma, q.lambda)
	default:
		fmt.Fprintf(&b, "%s|g%.9g|l%.9g|k%d", q.methodName, q.gamma, q.lambda, q.k)
	}
	for _, id := range q.project {
		fmt.Fprintf(&b, "|%d", id)
	}
	return b.String()
}

// discoverOne runs the full request pipeline — normalize, cache
// lookup, timed compute, metrics — and is shared by the single and
// batch endpoints. scanWorkers is the root-scan parallelism granted
// to this one discovery. The returned trace (nil with observation
// off) partitions the request into pipeline stages; it is complete
// only on success — a timed-out computation keeps lapping it in the
// abandoned worker, so error paths must not read it.
func (s *Server) discoverOne(ctx context.Context, req *DiscoverRequest, scanWorkers int) (*DiscoverResponse, *obs.Trace, *httpError) {
	var tr *obs.Trace
	if s.observe {
		tr = obs.NewTrace()
	}
	// Resolve the epoch once; the whole request — skill resolution,
	// cache key, search, scoring, serialization — runs against this one
	// snapshot and its zero-copy overlay view (O(|delta|) to build once
	// per epoch, shared by every request on it), never "the latest"
	// state and never a materialized graph copy.
	snap := s.store.Snapshot()
	q, herr := s.normalize(snap.View(), req)
	if herr != nil {
		s.metrics.record(methodLabel(req.Method), 0, true, nil)
		return nil, nil, herr
	}
	tr.Lap("resolve")
	start := time.Now()
	// Epoch-keyed cache entries: a mutation advances the epoch and
	// thereby orphans every cached result of the old epoch, so a
	// discover answer is never served from a dead epoch (the orphans
	// age out of the LRU).
	key := fmt.Sprintf("e%d|%s", snap.Epoch(), q.cacheKey())
	// Singleflight: concurrent identical cache misses elect one leader
	// whose worker computes and fills the cache; the rest wait on the
	// leader's latch (bounded by their context and the request
	// timeout) and then re-read the cache. With caching disabled there
	// is nowhere for waiters to read a result from, so every request
	// computes independently.
	var latch chan struct{}
	for s.cache.Enabled() {
		if hit, ok := s.cache.Get(key); ok {
			resp := *hit // shallow copy; Teams/Pareto stay shared and immutable
			resp.Cached = true
			resp.ElapsedMS = msSince(start)
			// Re-echo the request's own parameters: the cached entry
			// may come from a request differing in fields its method
			// ignores (e.g. pareto's γ/λ/k).
			resp.Gamma, resp.Lambda, resp.K = q.gamma, q.lambda, q.k
			tr.Lap("cache")
			s.metrics.record(q.methodName, time.Since(start), false, tr)
			s.logSlow(q, time.Since(start), true, snap.Epoch(), tr)
			return &resp, tr, nil
		}
		s.flightMu.Lock()
		inflight, waiting := s.flights[key]
		if !waiting {
			latch = make(chan struct{})
			s.flights[key] = latch
			s.flightMu.Unlock()
			break // leader: compute below
		}
		s.flightMu.Unlock()
		select {
		case <-inflight:
			// Leader's worker finished (filling the cache on success);
			// loop to re-read.
		case <-ctx.Done():
			s.metrics.record(q.methodName, time.Since(start), true, nil)
			return nil, nil, errf(http.StatusGatewayTimeout, "request cancelled")
		case <-time.After(s.cfg.RequestTimeout):
			s.metrics.record(q.methodName, time.Since(start), true, nil)
			return nil, nil, errf(http.StatusGatewayTimeout,
				"discovery exceeded the %v request timeout", s.cfg.RequestTimeout)
		}
	}
	release := func() {}
	if latch != nil {
		release = func() {
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(latch)
		}
	}
	resp, herr := s.computeWithTimeout(ctx, snap, q, key, scanWorkers, release, tr)
	if herr != nil {
		s.metrics.record(q.methodName, time.Since(start), true, nil)
		return nil, nil, herr
	}
	s.metrics.record(q.methodName, time.Since(start), false, tr)
	s.logSlow(q, time.Since(start), false, snap.Epoch(), tr)
	return resp, tr, nil
}

// logSlow emits one structured log line for a discovery slower than
// Config.SlowQueryThreshold, rate-limited to at most one per second
// so a pathological workload cannot flood the log. The span breakdown
// rides along when tracing is on.
func (s *Server) logSlow(q *query, elapsed time.Duration, cached bool, epoch uint64, tr *obs.Trace) {
	if s.cfg.SlowQueryThreshold <= 0 || elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	now := time.Now().UnixNano()
	last := s.slowLogNS.Load()
	if now-last < int64(time.Second) || !s.slowLogNS.CompareAndSwap(last, now) {
		return
	}
	slog.Warn("server: slow discovery",
		"method", q.methodName,
		"skills", q.names,
		"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
		"epoch", epoch,
		"cached", cached,
		"spans", tr.Header())
}

// computeWithTimeout bounds one discovery computation by the server's
// request timeout (and the caller's context). The search itself has no
// cancellation points, so on timeout the worker goroutine is abandoned
// — but it still fills the result cache when it eventually finishes,
// so a client retrying a slow query converges on a hit instead of
// recomputing forever. The worker finalizes the response (ElapsedMS,
// cache fill) before publishing it; afterwards the response is
// immutable.
func (s *Server) computeWithTimeout(ctx context.Context, snap *live.Snapshot, q *query, key string, scanWorkers int, release func(), tr *obs.Trace) (*DiscoverResponse, *httpError) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	type outcome struct {
		resp *DiscoverResponse
		herr *httpError
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release() // after the cache fill, so waiters re-read a hit
		start := time.Now()
		resp, herr := s.compute(snap, q, scanWorkers, tr)
		if herr == nil {
			resp.ElapsedMS = msSince(start)
			s.cache.Put(key, snap.Epoch(), resp)
		}
		ch <- outcome{resp, herr}
	}()
	select {
	case out := <-ch:
		return out.resp, out.herr
	case <-ctx.Done():
		return nil, errf(http.StatusGatewayTimeout,
			"discovery exceeded the %v request timeout", s.cfg.RequestTimeout)
	}
}

// compute runs the selected discovery method against the snapshot's
// graph view and indexes, lapping tr at each pipeline stage.
func (s *Server) compute(snap *live.Snapshot, q *query, scanWorkers int, tr *obs.Trace) (*DiscoverResponse, *httpError) {
	g := snap.View()
	p, err := s.node.Params(snap, q.gamma, q.lambda)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	tr.Lap("fit")
	resp := &DiscoverResponse{
		Method: q.methodName,
		Skills: q.names,
		Gamma:  q.gamma,
		Lambda: q.lambda,
		K:      q.k,
		Epoch:  snap.Epoch(),
	}
	switch q.methodName {
	case "random":
		tm, err := core.Random(p, q.project, q.trials, rand.New(rand.NewSource(q.seed)))
		if err != nil {
			return nil, discoveryError(err)
		}
		tr.Lap("search")
		resp.Teams = []TeamResult{s.teamResult(g, tm, p)}
		tr.Lap("score")
	case "exact":
		tm, err := core.Exact(p, q.project, core.ExactOptions{})
		if err != nil {
			return nil, discoveryError(err)
		}
		tr.Lap("search")
		resp.Teams = []TeamResult{s.teamResult(g, tm, p)}
		tr.Lap("score")
	case "pareto":
		front, err := core.ParetoFront(g, q.project, core.ParetoOptions{
			// Route the sweep's per-γ indexes through the server's
			// resident set so repeated pareto queries amortize the
			// builds like every other method. A nil oracle (index not
			// yet current at this epoch) falls back to per-root
			// Dijkstra inside the sweep.
			IndexFor: func(p *transform.Params, m core.Method) oracle.Oracle {
				return s.node.Index(snap, p, m)
			},
		})
		if err != nil {
			return nil, discoveryError(err)
		}
		tr.Lap("search")
		for _, f := range front {
			fp, err := s.node.Params(snap, f.Gamma, f.Lambda)
			if err != nil {
				return nil, errf(http.StatusInternalServerError, "%v", err)
			}
			resp.Pareto = append(resp.Pareto, ParetoResult{
				CC: f.CC, CA: f.CA, SA: f.SA,
				Gamma: f.Gamma, Lambda: f.Lambda,
				Team: s.teamResult(g, f.Team, fp),
			})
		}
		tr.Lap("score")
	default: // cc | ca-cc | sa-ca-cc
		// A nil oracle means no index is current at this epoch (a
		// rebuild is in flight); TopKParallel then runs exact per-root
		// Dijkstra — slower, but never a dead epoch's distances.
		dist := s.node.Index(snap, p, q.method)
		tr.Lap("index")
		teams, err := core.TopKParallelStaged(p, q.method, q.project, q.k, scanWorkers, dist, tr.Lap)
		if err != nil {
			return nil, discoveryError(err)
		}
		for _, tm := range teams {
			resp.Teams = append(resp.Teams, s.teamResult(g, tm, p))
		}
		tr.Lap("score")
	}
	return resp, nil
}

// methodLabel sanitizes a client-supplied method string for the
// per-method metrics counters: unknown strings collapse to one label
// so arbitrary input cannot grow the counter map without bound.
func methodLabel(m string) string {
	switch m {
	case "":
		return "sa-ca-cc"
	case "cc", "ca-cc", "sa-ca-cc", "random", "exact", "pareto":
		return m
	default:
		return "invalid"
	}
}

// discoveryError maps library errors to HTTP statuses: an infeasible
// project is the client's data condition (404), anything else a server
// fault (500).
func discoveryError(err error) *httpError {
	if errors.Is(err, core.ErrNoTeam) || errors.Is(err, core.ErrNoExpert) {
		return errf(http.StatusNotFound, "%v", err)
	}
	return errf(http.StatusInternalServerError, "%v", err)
}

// teamResult serializes one team with member roles and all objective
// scores under p, reading node records from the graph the team was
// discovered on.
func (s *Server) teamResult(g expertgraph.GraphView, tm *team.Team, p *transform.Params) TeamResult {
	roles := make(map[expertgraph.NodeID][]string, len(tm.Assignment))
	for sid, holder := range tm.Assignment {
		roles[holder] = append(roles[holder], g.SkillName(sid))
	}
	for _, r := range roles {
		sort.Strings(r)
	}
	out := TeamResult{
		Root:    g.Name(tm.Root),
		Size:    tm.Size(),
		Members: make([]MemberResult, 0, len(tm.Nodes)),
	}
	for _, u := range tm.Nodes {
		out.Members = append(out.Members, MemberResult{
			Name:      g.Name(u),
			Authority: g.Authority(u),
			Pubs:      g.Pubs(u),
			Skills:    roles[u],
		})
	}
	sc := team.Evaluate(tm, p)
	out.Scores = ScoreResult{CC: sc.CC, CA: sc.CA, SA: sc.SA, CACC: sc.CACC, SACACC: sc.SACACC}
	return out
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req DiscoverRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		writeError(w, herr)
		return
	}
	// Read-your-writes: a client echoing the epoch of its last write
	// must never observe an older view, even on a lagging replica.
	if herr := s.ensureMinEpoch(r); herr != nil {
		writeError(w, herr)
		return
	}
	resp, tr, herr := s.discoverOne(r.Context(), &req, s.cfg.Workers)
	if herr != nil {
		writeError(w, herr)
		return
	}
	if tr != nil {
		if h := tr.Header(); h != "" {
			w.Header().Set("X-Authteam-Trace", h)
		}
		if r.URL.Query().Get("debug") == "trace" {
			// Shallow-copy before attaching: the response may be the
			// shared cached object, which must stay immutable.
			cp := *resp
			cp.Trace = traceInfo(tr)
			resp = &cp
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		writeError(w, herr)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, errf(http.StatusBadRequest, "empty batch"))
		return
	}
	if len(req.Requests) > maxBatchSize {
		writeError(w, errf(http.StatusBadRequest,
			"batch of %d exceeds the %d-request limit", len(req.Requests), maxBatchSize))
		return
	}
	if herr := s.ensureMinEpoch(r); herr != nil {
		writeError(w, herr)
		return
	}
	start := time.Now()
	debugTrace := r.URL.Query().Get("debug") == "trace"
	results := make([]BatchItem, len(req.Requests))
	// Split the worker budget between batch fan-out and each item's
	// root scan, so one batch cannot oversubscribe the CPU with up to
	// Workers² goroutines.
	fanout := min(len(req.Requests), s.cfg.Workers)
	scanWorkers := max(1, s.cfg.Workers/fanout)
	sem := make(chan struct{}, fanout)
	var wg sync.WaitGroup
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, tr, herr := s.discoverOne(r.Context(), &req.Requests[i], scanWorkers)
			if herr == nil && debugTrace && tr != nil {
				cp := *resp // cached responses are shared; never mutate them
				cp.Trace = traceInfo(tr)
				resp = &cp
			}
			item := BatchItem{Index: i, Status: http.StatusOK, Response: resp}
			if herr != nil {
				item.Status, item.Error, item.Response = herr.status, herr.msg, nil
			}
			results[i] = item
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{
		Results:   results,
		ElapsedMS: msSince(start),
	})
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Epoch         uint64  `json:"epoch"`
	Graph         struct {
		Nodes  int `json:"nodes"`
		Edges  int `json:"edges"`
		Skills int `json:"skills"`
	} `json:"graph"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	resp := HealthResponse{Status: "ok", Epoch: snap.Epoch()}
	resp.UptimeSeconds = time.Since(s.metrics.start).Seconds()
	resp.Graph.Nodes = snap.NumNodes()
	resp.Graph.Edges = snap.NumEdges()
	resp.Graph.Skills = snap.View().NumSkills()
	writeJSON(w, http.StatusOK, resp)
}

// LiveStats is the live-mutation section of the /stats payload.
type LiveStats struct {
	Epoch uint64 `json:"epoch"`
	// BaseEpoch is the epoch of the store's in-memory base graph (> 0
	// after a compacted base was adopted at boot or a fold re-based the
	// store while serving); Epoch−BaseEpoch bounds the next restart's
	// journal replay.
	BaseEpoch      uint64 `json:"base_epoch"`
	Nodes          int    `json:"nodes"`
	Edges          int    `json:"edges"`
	JournalRecords uint64 `json:"journal_records"`
	JournalBytes   int64  `json:"journal_bytes"`
	live.Counters
	node.IndexStats
	// Materializations counts full-graph materializations; the overlay
	// read path keeps it at zero while serving discovers (index
	// rebuilds and compactions are the intended exceptions).
	Materializations uint64 `json:"materializations"`
	// Commits counts group commits (published batches); Epoch−Commits
	// is the lifetime batching win. OverlayChainDepth is the chain
	// depth of the current epoch's overlay view (0 = refolded from the
	// base) and OverlayRefolds counts the full refolds the chain depth
	// guard forced.
	Commits           uint64 `json:"commits"`
	OverlayChainDepth int    `json:"overlay_chain_depth"`
	OverlayRefolds    uint64 `json:"overlay_refolds"`
	Compactions       uint64 `json:"compactions"`
	// BaseAdoptions counts wholesale base replacements (a follower
	// re-anchoring on the leader's fold snapshot after falling below
	// the retained journal window).
	BaseAdoptions uint64 `json:"base_adoptions"`
	// LogLen is the resident mutation log since BaseEpoch — the
	// quantity the background compactor keeps bounded, and the cost of
	// the next per-epoch overlay construction.
	LogLen int `json:"log_len"`
	// Compactor reports the background fold loop (zero value when it
	// is disabled).
	Compactor live.CompactorStats `json:"compactor"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	MetricsSnapshot
	Cache       CacheStats       `json:"cache"`
	Live        LiveStats        `json:"live"`
	Replication ReplicationStats `json:"replication"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Snapshot()
	records, bytes := s.store.JournalStats()
	// Epoch, base epoch and log length all come from the one snapshot
	// resolved above, so the payload is internally consistent even when
	// a fold re-bases the store mid-handler (epoch ≥ base_epoch and
	// log_len == epoch − base_epoch always hold within a response).
	baseEpoch := snap.BaseEpoch()
	writeJSON(w, http.StatusOK, StatsResponse{
		MetricsSnapshot: s.metrics.snapshot(),
		Cache:           s.cache.Stats(),
		Live: LiveStats{
			Epoch:             snap.Epoch(),
			BaseEpoch:         baseEpoch,
			Nodes:             snap.NumNodes(),
			Edges:             snap.NumEdges(),
			JournalRecords:    records,
			JournalBytes:      bytes,
			Counters:          s.store.Counters(),
			IndexStats:        s.node.IndexStats(),
			Materializations:  s.store.Materializations(),
			Commits:           s.store.Commits(),
			OverlayChainDepth: s.store.ChainDepth(),
			OverlayRefolds:    s.store.Refolds(),
			Compactions:       s.store.Compactions(),
			BaseAdoptions:     s.store.BaseAdoptions(),
			LogLen:            int(snap.Epoch() - baseEpoch),
			Compactor:         s.node.CompactorStats(),
		},
		Replication: s.replicationStats(),
	})
}

// decodeBody parses a JSON request body, rejecting empty and malformed
// bodies with 400 and bodies past maxBodyBytes with 413.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return errf(http.StatusBadRequest, "invalid request body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	if herr.location != "" {
		w.Header().Set("Location", herr.location)
	}
	if herr.term != nil {
		w.Header().Set(repl.TermHeader, strconv.FormatUint(*herr.term, 10))
	}
	writeJSON(w, herr.status, errorResponse{Error: herr.msg})
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
