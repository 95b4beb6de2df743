// Package server is the long-lived query-serving layer over the team
// discovery library: an HTTP/JSON daemon that loads the expert graph
// and its 2-hop cover index once at startup and then amortizes that
// preprocessing over arbitrarily many discovery requests — the usage
// regime the paper's indexing argument (§4.1) assumes, and the seam
// every scaling extension (sharding, batching, replication) plugs
// into.
//
// Endpoints:
//
//	POST   /v1/discover          one project → top-k teams
//	POST   /v1/discover/batch    many projects, fanned out over workers
//	POST   /v1/graph/nodes       add an expert (live mutation)
//	POST   /v1/graph/edges       add a collaboration (live mutation)
//	PATCH  /v1/graph/nodes/{id}  update authority / grant skills
//	DELETE /v1/graph/nodes/{id}  tombstone an expert (drops its edges)
//	DELETE /v1/graph/edges       remove a collaboration
//	PATCH  /v1/graph/edges       re-weight a collaboration
//	GET    /v1/journal/tail      replication: journal records after an epoch (long-poll)
//	GET    /v1/journal/base      replication: the compacted fold snapshot
//	GET    /healthz              liveness + graph summary + epoch
//	GET    /stats                query counters, latency percentiles,
//	                             cache hit rate, live-mutation state
//
// The graph is served through the live-mutation overlay
// (internal/live): every request resolves one epoch snapshot and runs
// entirely against it (snapshot isolation), mutations advance the
// epoch atomically, and the result cache is epoch-keyed so a discover
// answer is never served from a dead epoch. The 2-hop cover indexes
// are carried across epochs by incremental repair (resumed pruned
// Dijkstras); when a delta is not repairable the index is rebuilt
// asynchronously while affected queries fall back to exact per-root
// Dijkstra. Identical requests are served from an LRU result cache
// keyed on the epoch, the normalized project and the full
// parameterization; every computation is bounded by a per-request
// timeout and the daemon drains in-flight requests on shutdown.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/node"
	"authteam/internal/obs"
)

// Config parameterizes a Server. The zero value is usable given a
// Graph or GraphPath.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":7411").
	Addr string
	// GraphPath is the expert network file produced by dblpgen. It is
	// ignored when Graph is non-nil, but still used (when non-empty) as
	// the persistence prefix for built indexes.
	GraphPath string
	// Graph serves an already-loaded graph (tests, embedding).
	Graph *expertgraph.Graph
	// JournalPath enables the write-ahead mutation journal. An existing
	// journal is replayed onto the base graph at startup, restoring the
	// pre-restart epoch. Empty disables journaling (mutations are then
	// lost on restart).
	JournalPath string
	// JournalSync fsyncs the journal after every mutation.
	JournalSync bool
	// CompactThreshold folds the journal into a persisted base graph
	// (JournalPath+".base") at boot when the replayed suffix has at
	// least this many records, keeping restart replay O(recent churn).
	// 0 disables the boot fold. With CompactInterval set it is also the
	// background compactor's record trigger.
	CompactThreshold int
	// CompactInterval enables the background compactor: a goroutine
	// that polls at this (jittered) cadence and — when the journal has
	// accumulated CompactThreshold records or CompactBytes bytes since
	// the last fold — runs Compact while serving, re-basing the
	// in-memory store so resident log length and per-epoch overlay cost
	// stay O(churn since the last fold) in a never-restarted daemon.
	// 0 disables it. Requires JournalPath.
	CompactInterval time.Duration
	// CompactBytes is the background compactor's journal-size trigger
	// (0 disables the byte trigger; with CompactThreshold also 0 the
	// compactor falls back to a record default).
	CompactBytes int64
	// RepairBudget caps how many delta mutations an index is carried
	// across by incremental repair before a full rebuild is preferred
	// (default 512; negative disables incremental repair).
	RepairBudget int
	// CommitBatch caps how many queued mutations the store's group
	// committer covers with one journal write + epoch publish
	// (live.Config.CommitBatch); ≤ 0 keeps the default (256).
	CommitBatch int
	// FollowURL turns the server into a read replica of the leader at
	// this base URL: the store is bootstrapped from the leader's
	// replication log (base snapshot + journal tail), kept current by a
	// background follower loop, and mutation endpoints answer 307
	// redirects to the leader. Empty (the default) serves as a leader.
	FollowURL string
	// FollowPoll bounds one replication long-poll (default 25s).
	FollowPoll time.Duration
	// MinEpochWait bounds how long a read carrying X-Authteam-Min-Epoch
	// may block waiting for replication to catch up before the server
	// gives up (307 to the leader on a follower, 409 on a leader).
	// Default 5s.
	MinEpochWait time.Duration
	// NoPersistIndex disables writing built 2-hop covers next to the
	// graph file.
	NoPersistIndex bool
	// CacheSize bounds the result LRU (default 1024; negative
	// disables caching).
	CacheSize int
	// RequestTimeout bounds each discovery computation (default 30s).
	RequestTimeout time.Duration
	// Workers is the root-scan parallelism per discovery and the
	// fan-out width of batch requests (default runtime.NumCPU()). It
	// does not touch 2-hop cover builds: each is one sequential sweep.
	Workers int
	// Gamma and Lambda are the defaults applied to requests that omit
	// them. Nil means 0.6 (the paper's setting); pointers keep an
	// explicit server default of 0 distinguishable from unset.
	Gamma, Lambda *float64
	// WarmIndex builds the default-γ G' index during New instead of on
	// the first CA-CC/SA-CA-CC request.
	WarmIndex bool
	// Metrics supplies an external obs registry for the server's
	// instruments (embedding several components under one exposition).
	// Nil gives the server its own registry; either way GET /metrics
	// serves it. Two servers must not share one registry — their
	// gauge registrations would collide.
	Metrics *obs.Registry
	// NoObserve turns off the optional instrumentation: pipeline
	// tracing (spans, X-Authteam-Trace, debug=trace), per-route HTTP
	// histograms, and the live-store/index/replication instruments.
	// The request counters behind /stats keep working. Exists so the
	// instrumentation overhead is measurable (BENCH_obs.json).
	NoObserve bool
	// DebugAddr starts a second listener (ListenAndServe only) serving
	// net/http/pprof plus /metrics, /readyz and /healthz — profiling
	// stays off the public port. Empty disables it.
	DebugAddr string
	// ReadyMaxLagEpochs is the /readyz threshold on follower epoch lag:
	// past it the probe answers 503 so a balancer sheds the stale
	// replica. 0 means the default (4096); negative disables the check.
	ReadyMaxLagEpochs int64
	// ReadyMaxLag is the /readyz threshold on follower staleness in
	// wall time (how long since the follower last confirmed catch-up).
	// 0 means the default (60s); negative disables the check.
	ReadyMaxLag time.Duration
	// SlowQueryThreshold enables the sampled slow-query log: discovers
	// slower than this are logged through slog with their pipeline
	// spans, rate-limited to one line per second. 0 disables it.
	SlowQueryThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":7411"
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.RepairBudget == 0 {
		c.RepairBudget = 512
	}
	if c.FollowPoll == 0 {
		c.FollowPoll = 25 * time.Second
	}
	if c.MinEpochWait == 0 {
		c.MinEpochWait = 5 * time.Second
	}
	if c.ReadyMaxLagEpochs == 0 {
		c.ReadyMaxLagEpochs = 4096
	}
	if c.ReadyMaxLag == 0 {
		c.ReadyMaxLag = 60 * time.Second
	}
	return c
}

// Server answers team discovery requests over one expert network. It
// is safe for concurrent use; create with New.
type Server struct {
	cfg Config
	// node owns the store, its compactor and follower, the fit memo and
	// the 2-hop covers; store is its store. A follower's replication
	// loop survives promotion as a stopped loop; role, not the node,
	// decides how requests are served.
	node    *node.Node
	store   *live.Store
	cache   *lruCache
	metrics *metrics
	// role is the cluster-role state machine (cluster.go); leaderURL is
	// the follower's current upstream ("" once promoted). promoteMu
	// serializes the promote/demote transitions.
	role       atomic.Int32
	leaderURL  atomic.Value // string
	promoteMu  sync.Mutex
	promotions atomic.Uint64
	// fencedRequests counts requests refused (or a leadership lost)
	// because a peer proved a newer term.
	fencedRequests atomic.Uint64
	// Replication-serving counters (leader side of the log).
	tailRequests  atomic.Uint64
	tailCompacted atomic.Uint64
	baseRequests  atomic.Uint64
	// gamma and lambda are the resolved request defaults.
	gamma, lambda float64

	// obs is the metrics registry served at /metrics (always non-nil).
	// observe gates the optional instrumentation — pipeline tracing and
	// the per-route HTTP histograms (httpReqs/httpHist are nil when
	// off; observation on nil instruments is a no-op).
	obs      *obs.Registry
	observe  bool
	httpReqs *obs.CounterVec   // authteam_http_requests_total{route, code}
	httpHist *obs.HistogramVec // authteam_http_request_seconds{route}
	// slowLogNS rate-limits the slow-query log: unix nanos of the last
	// emitted line, CAS-advanced so at most one line per second escapes
	// a latency storm.
	slowLogNS atomic.Int64

	// flights holds one latch per cache key being computed, so
	// concurrent identical requests run the discovery once.
	flightMu sync.Mutex
	flights  map[string]chan struct{}
}

// New loads (or adopts) the graph, replays the journal if configured,
// and prepares the serving state. With cfg.WarmIndex it also builds
// the default-γ index before returning, so the first request pays no
// preprocessing latency.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	gamma, lambda := 0.6, 0.6
	if cfg.Gamma != nil {
		gamma = *cfg.Gamma
	}
	if cfg.Lambda != nil {
		lambda = *cfg.Lambda
	}
	if gamma < 0 || gamma > 1 || lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("server: default γ=%v λ=%v out of [0,1]", gamma, lambda)
	}
	g := cfg.Graph
	if g == nil {
		switch {
		case cfg.GraphPath != "":
			var err error
			g, err = expertgraph.LoadFile(cfg.GraphPath)
			if err != nil {
				// A follower bootstraps from the leader's replication
				// log, so a missing graph file just means an empty
				// starting point; any other load error is still fatal.
				if cfg.FollowURL == "" || !errors.Is(err, os.ErrNotExist) {
					return nil, fmt.Errorf("server: %w", err)
				}
			}
		case cfg.FollowURL != "":
			// Pure follower: start empty, catch up over the wire.
		default:
			return nil, fmt.Errorf("server: config needs Graph, GraphPath or FollowURL")
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The optional instruments (store, indexes, replication, routes,
	// tracing) register only when observing; the request counters that
	// back /stats always do.
	var nodeReg *obs.Registry
	if !cfg.NoObserve {
		nodeReg = reg
	}
	indexPath := cfg.GraphPath
	if cfg.NoPersistIndex {
		indexPath = ""
	}
	n, err := node.Open(node.Config{
		Graph:            g,
		JournalPath:      cfg.JournalPath,
		JournalSync:      cfg.JournalSync,
		CompactThreshold: cfg.CompactThreshold,
		CommitBatch:      cfg.CommitBatch,
		CompactInterval:  cfg.CompactInterval,
		CompactBytes:     cfg.CompactBytes,
		OnFold: func(st live.CompactStats, took time.Duration, err error) {
			if err != nil {
				slog.Error("server: background compaction failed", "err", err)
				return
			}
			slog.Info("server: compacted journal",
				"epoch", st.Epoch,
				"fold_ms", float64(took)/float64(time.Millisecond),
				"folded", st.Folded,
				"in_flight", st.Remaining)
		},
		FollowURL:    cfg.FollowURL,
		FollowPoll:   cfg.FollowPoll,
		RepairBudget: cfg.RepairBudget,
		IndexPath:    indexPath,
		Metrics:      nodeReg,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		node:    n,
		store:   n.Store(),
		cache:   newLRU(cfg.CacheSize),
		metrics: newMetrics(reg),
		obs:     reg,
		observe: !cfg.NoObserve,
		gamma:   gamma,
		lambda:  lambda,
		flights: make(map[string]chan struct{}),
	}
	// Boot-time role: FollowURL makes a follower, otherwise a leader —
	// unless the journal replayed a persisted fence, in which case the
	// node restarts demoted: its store would 412 every write anyway, so
	// advertising leadership (and readiness) would only send clients to
	// a dead lineage. From here on the role atomic — not the config —
	// drives request dispatch, so a promotion can flip the node while
	// it serves.
	s.leaderURL.Store(cfg.FollowURL)
	switch {
	case s.store.Fenced():
		s.role.Store(roleDemoted)
	case cfg.FollowURL != "":
		s.role.Store(roleFollower)
	default:
		s.role.Store(roleLeader)
	}
	if s.observe {
		// The cluster family is exported on every role: a dashboard
		// watches the same four series through a failover instead of
		// series appearing and vanishing with the role.
		reg.GaugeFunc("authteam_cluster_term",
			"Current fencing term of the local store.",
			func() float64 { return float64(s.store.Term()) })
		reg.GaugeFunc("authteam_cluster_role",
			"Cluster role code: 0 leader, 1 follower, 2 promoting, 3 demoted.",
			func() float64 { return float64(s.syncRole()) })
		reg.CounterFunc("authteam_cluster_promotions_total",
			"Follower-to-leader promotions completed by this node.",
			func() float64 { return float64(s.promotions.Load()) })
		reg.CounterFunc("authteam_cluster_fenced_total",
			"Requests refused (or leaderships lost) because a peer proved a newer term.",
			func() float64 { return float64(s.fencedRequests.Load()) })
		s.httpReqs = reg.CounterVec("authteam_http_requests_total",
			"HTTP requests by route and status code.", "route", "code")
		s.httpHist = reg.HistogramVec("authteam_http_request_seconds",
			"HTTP request latency by route.", nil, "route")
		reg.CounterFunc("authteam_cache_hits_total",
			"Result-cache hits.", func() float64 { return float64(s.cache.Stats().Hits) })
		reg.CounterFunc("authteam_cache_misses_total",
			"Result-cache misses.", func() float64 { return float64(s.cache.Stats().Misses) })
		reg.GaugeFunc("authteam_cache_size",
			"Resident result-cache entries.", func() float64 { return float64(s.cache.Stats().Size) })
		reg.CounterFunc("authteam_journal_tail_requests_total",
			"Replication tail round-trips served (leader side).",
			func() float64 { return float64(s.tailRequests.Load()) })
		reg.CounterFunc("authteam_journal_base_requests_total",
			"Replication base snapshots served (leader side).",
			func() float64 { return float64(s.baseRequests.Load()) })
	}
	// A follower warms its index once replication has caught up, not
	// against the (possibly empty) bootstrap state.
	if cfg.WarmIndex && cfg.FollowURL == "" {
		snap := s.store.Snapshot()
		p, err := s.node.Params(snap, s.gamma, s.lambda)
		if err != nil {
			n.Close()
			return nil, err
		}
		s.node.Index(snap, p, defaultMethod)
	}
	return s, nil
}

// Store exposes the live mutation overlay (for embedding and tests).
func (s *Server) Store() *live.Store { return s.store }

// Graph returns the expert network at the current epoch.
func (s *Server) Graph() *expertgraph.Graph {
	g, err := s.store.Snapshot().Graph()
	if err != nil {
		// Mutations are validated before they are admitted, so a
		// snapshot always materializes; this keeps the accessor simple
		// for logging call sites.
		panic(err)
	}
	return g
}

// statusWriter records the response status for the per-route request
// counter. Flush is forwarded so streaming handlers keep working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-route latency histogram and
// request counter. The histogram child is resolved once at wiring
// time, so the hot path adds two atomics and a map lookup for the
// status-coded counter. With observation off it returns h unchanged.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	if !s.observe {
		return h
	}
	hist := s.httpHist.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		hist.Observe(time.Since(start).Seconds())
		s.httpReqs.With(route, strconv.Itoa(sw.status)).Inc()
	}
}

// Handler returns the routed HTTP handler, for embedding the server
// under an existing mux or an httptest server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(label, h))
	}
	route("POST /v1/discover", "discover", s.handleDiscover)
	route("POST /v1/discover/batch", "batch", s.handleBatch)
	// Mutation routes are wired once and dispatch on the live role: a
	// leader applies locally, a follower 307s to the writer, a demoted
	// node answers the fence. A follower's store is owned by its
	// replication loop — local writes would fork the history — which is
	// exactly what the dispatch (and under it, the store's own fencing)
	// prevents.
	route("POST /v1/graph/nodes", "add_node", s.dispatchMutation(s.handleAddNode))
	route("POST /v1/graph/edges", "add_edge", s.dispatchMutation(s.handleAddEdge))
	route("PATCH /v1/graph/nodes/{id}", "update_node", s.dispatchMutation(s.handleUpdateNode))
	route("DELETE /v1/graph/nodes/{id}", "remove_node", s.dispatchMutation(s.handleRemoveNode))
	route("DELETE /v1/graph/edges", "remove_edge", s.dispatchMutation(s.handleRemoveEdge))
	route("PATCH /v1/graph/edges", "update_edge", s.dispatchMutation(s.handleUpdateEdge))
	// The replication log is served by every node, not just leaders, so
	// a follower can itself fan out to more followers (relay trees).
	route("GET /v1/journal/tail", "journal_tail", s.handleJournalTail)
	route("GET /v1/journal/base", "journal_base", s.handleJournalBase)
	route("GET /v1/cluster/role", "cluster_role", s.handleClusterRole)
	route("POST /v1/cluster/promote", "cluster_promote", s.handleClusterPromote)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /stats", "stats", s.handleStats)
	// The observability surface itself is deliberately uninstrumented:
	// scrapes should not move the latency histograms they read.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleMetrics serves the registry in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.WritePrometheus(w); err != nil {
		// Headers are gone; nothing to do but note it.
		slog.Debug("server: metrics write failed", "err", err)
	}
}

// ReadyzResponse is the /readyz payload. Readiness is distinct from
// /healthz liveness: a lagging follower is alive (and still serves
// snapshot-consistent reads of its epoch) but should be pulled from a
// freshness-sensitive balancer pool.
type ReadyzResponse struct {
	Ready bool   `json:"ready"`
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Reason explains a 503 ("", when ready).
	Reason string `json:"reason,omitempty"`
	// Follower-only lag detail (mirrors ReplicationStats).
	LeaderEpoch uint64  `json:"leader_epoch,omitempty"`
	LagEpochs   uint64  `json:"lag_epochs,omitempty"`
	LagSeconds  float64 `json:"lag_seconds,omitempty"`
}

// handleReadyz answers the lag-aware readiness probe, following the
// cluster role live: a leader is ready while it serves; a follower is
// ready while its replication loop runs and its lag is inside the
// configured thresholds; a node mid-promotion or fenced out of the
// lineage is not ready (the balancer must stop routing to it even
// though its snapshot reads still work).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	role := s.syncRole()
	resp := ReadyzResponse{Ready: true, Role: roleName(role), Epoch: s.store.Epoch()}
	switch role {
	case roleFollower:
		st, _ := s.node.FollowerStats()
		resp.LeaderEpoch = st.LeaderEpoch
		resp.LagEpochs = st.Lag
		resp.LagSeconds = st.LagSeconds
		switch {
		case !st.Running:
			resp.Ready = false
			resp.Reason = "replication loop stopped: " + st.LastError
		case s.cfg.ReadyMaxLagEpochs > 0 && st.Lag > uint64(s.cfg.ReadyMaxLagEpochs):
			resp.Ready = false
			resp.Reason = fmt.Sprintf("lag %d epochs exceeds threshold %d", st.Lag, s.cfg.ReadyMaxLagEpochs)
		case s.cfg.ReadyMaxLag > 0 && st.LagSeconds > s.cfg.ReadyMaxLag.Seconds():
			resp.Ready = false
			resp.Reason = fmt.Sprintf("stale for %.1fs, threshold %s", st.LagSeconds, s.cfg.ReadyMaxLag)
		}
	case rolePromoting:
		resp.Ready = false
		resp.Reason = "promotion in progress"
	case roleDemoted:
		resp.Ready = false
		resp.Reason = fmt.Sprintf("fenced by term %d; no longer part of the serving lineage", s.store.Term())
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// Close stops the replication follower and background compactor (if
// any) and releases the mutation journal. Serving (reads) keeps
// working; further mutations fail with live.ErrClosed.
func (s *Server) Close() error { return s.node.Close() }

// debugHandler builds the mux for the private debug listener
// (Config.DebugAddr): pprof plus a second copy of the observability
// endpoints, so profiles and scrapes work even when the public
// address sits behind a proxy that should not expose them.
func (s *Server) debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// ListenAndServe serves until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 10 seconds. When
// Config.DebugAddr is set, a second listener serves pprof and the
// observability endpoints there; it lives and dies with the main one.
func (s *Server) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	var dbg *http.Server
	if s.cfg.DebugAddr != "" {
		dbg = &http.Server{
			Addr:              s.cfg.DebugAddr,
			Handler:           s.debugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				slog.Error("server: debug listener failed", "addr", dbg.Addr, "err", err)
			}
		}()
	}
	stopDebug := func() {
		if dbg != nil {
			drain, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			dbg.Shutdown(drain)
		}
	}
	select {
	case err := <-errCh:
		stopDebug()
		return err
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(drain)
		stopDebug()
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		return err
	}
}
