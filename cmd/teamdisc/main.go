// Command teamdisc answers team discovery queries over a saved expert
// network (see dblpgen) — either one-shot from the command line, or as
// a long-lived HTTP daemon that builds the 2-hop cover index once and
// amortizes it over many concurrent requests.
//
// Usage:
//
//	teamdisc -graph graph.bin -skills "analytics,matrix,communities" \
//	         -method sa-ca-cc -gamma 0.6 -lambda 0.6 -k 5
//	teamdisc -graph graph.bin -skills "query,indexing" -method pareto
//	teamdisc serve -graph graph.bin -addr :7411 -journal graph.wal \
//	         -compact-threshold 100000 -compact-interval 1m
//	teamdisc serve -addr :7412 -follow http://leader:7411
//	teamdisc compact -graph graph.bin -journal graph.wal
//	teamdisc cluster -peers http://a:7411,http://b:7412
//	teamdisc cluster -peers http://a:7411,http://b:7412 -promote http://b:7412
//
// The daemon's /v1/graph API is fully dynamic: POST adds nodes/edges,
// PATCH re-weights edges and updates node authority/skills, DELETE
// removes edges and tombstones nodes — all absorbed by incremental
// 2-hop cover repair (see the README's "Live updates" section).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/oracle"
	"authteam/internal/repl"
	"authteam/internal/server"
	"authteam/internal/team"
	"authteam/internal/transform"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "compact":
			runCompact(os.Args[2:])
			return
		case "cluster":
			runCluster(os.Args[2:])
			return
		}
	}
	runQuery(os.Args[1:])
}

// runCompact folds a mutation journal into its persisted base graph so
// the next boot replays only the post-compaction suffix.
func runCompact(args []string) {
	fs := flag.NewFlagSet("teamdisc compact", flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "graph.bin", "expert network file the journal was recorded against")
		journal   = fs.String("journal", "", "write-ahead mutation journal to fold (required)")
		threshold = fs.Int("threshold", 0, "only compact when at least this many journal records would be replayed (0 = always)")
	)
	fs.Parse(args)
	if *journal == "" {
		fail("compact: missing -journal")
	}
	g, err := expertgraph.LoadFile(*graphPath)
	if err != nil {
		fail("compact: load graph: %v", err)
	}
	st, err := live.Open(g, live.Config{JournalPath: *journal})
	if err != nil {
		fail("compact: %v", err)
	}
	defer st.Close()
	replayed := st.Epoch() - st.BaseEpoch()
	if *threshold > 0 && replayed < uint64(*threshold) {
		fmt.Printf("journal %s: %d records since last compaction, below threshold %d; nothing to do\n",
			*journal, replayed, *threshold)
		return
	}
	stats, err := st.Compact()
	if err != nil {
		fail("compact: %v", err)
	}
	// Folded counts what this run folded into the base; Removed also
	// includes any crash-window overlap a previously interrupted
	// compaction had already folded (the two differ only after such a
	// crash).
	fmt.Printf("compacted %s at epoch %d: folded %d records into %s.base (%d removed from journal), %d remain\n",
		*journal, stats.Epoch, stats.Folded, *journal, stats.Removed, stats.Remaining)
}

// runCluster inspects (and optionally changes) cluster roles: it polls
// every peer's /v1/cluster/role, prints the membership with terms and
// epochs, and with -promote drives a follower through the epoch-fenced
// promotion so it becomes the new leader.
func runCluster(args []string) {
	fs := flag.NewFlagSet("teamdisc cluster", flag.ExitOnError)
	var (
		peersArg = fs.String("peers", "", "comma-separated cluster node base URLs (required)")
		promote  = fs.String("promote", "", "promote the follower at this base URL to leader")
		term     = fs.Uint64("term", 0, "explicit term for -promote (0 = one past the follower's current term)")
		timeout  = fs.Duration("timeout", 10*time.Second, "per-request timeout")
	)
	fs.Parse(args)
	if *peersArg == "" {
		fail("cluster: missing -peers")
	}
	var peers []string
	for _, p := range strings.Split(*peersArg, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *promote != "" {
		target := strings.TrimRight(strings.TrimSpace(*promote), "/")
		body, err := json.Marshal(map[string]uint64{"term": *term})
		if err != nil {
			fail("cluster: %v", err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/cluster/promote", bytes.NewReader(body))
		if err != nil {
			fail("cluster: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fail("cluster: promote %s: %v", target, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if resp.StatusCode != http.StatusOK {
			fail("cluster: promote %s: %s: %s", target, resp.Status, strings.TrimSpace(string(raw)))
		}
		var pr struct {
			Role        string `json:"role"`
			Term        uint64 `json:"term"`
			SealedEpoch uint64 `json:"sealed_epoch"`
		}
		if err := json.Unmarshal(raw, &pr); err != nil {
			fail("cluster: promote %s: decode reply: %v", target, err)
		}
		fmt.Printf("promoted %s: role=%s term=%d sealed_epoch=%d\n", target, pr.Role, pr.Term, pr.SealedEpoch)
	}

	for _, p := range peers {
		ri, err := repl.FetchRole(ctx, nil, p)
		if err != nil {
			fmt.Printf("%-32s unreachable: %v\n", p, err)
			continue
		}
		line := fmt.Sprintf("%-32s role=%-9s term=%-4d epoch=%d", p, ri.Role, ri.Term, ri.Epoch)
		if ri.Leader != "" {
			line += "  leader=" + ri.Leader
		}
		fmt.Println(line)
	}
	if url, ri, err := repl.ResolveLeader(ctx, nil, peers); err == nil {
		fmt.Printf("leader: %s (term %d, epoch %d)\n", url, ri.Term, ri.Epoch)
	} else {
		fmt.Printf("leader: %v\n", err)
	}
}

// runServe starts the long-lived query-serving daemon.
func runServe(args []string) {
	fs := flag.NewFlagSet("teamdisc serve", flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "graph.bin", "expert network file (from dblpgen)")
		addr      = fs.String("addr", ":7411", "listen address")
		gamma     = fs.Float64("gamma", 0.6, "default connector-authority tradeoff γ")
		lambda    = fs.Float64("lambda", 0.6, "default skill-holder-authority tradeoff λ")
		cacheSize = fs.Int("cache", 1024, "result cache entries (negative disables)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request discovery timeout")
		workers   = fs.Int("workers", 0, "root-scan parallelism (0 = NumCPU)")
		noPersist = fs.Bool("no-persist-index", false, "do not save built indexes next to the graph")
		cold      = fs.Bool("cold", false, "skip warming the default-γ index at startup")
		journal   = fs.String("journal", "", "write-ahead mutation journal; replayed onto the graph at boot (empty disables live-mutation durability)")
		jsync     = fs.Bool("journal-sync", false, "fsync the journal after every mutation")
		compactAt = fs.Int("compact-threshold", 0, "fold the journal when it holds at least this many records — at boot, and (with -compact-interval) while serving (0 disables the boot fold; the background compactor then defaults to 8192 records)")
		compactIv = fs.Duration("compact-interval", 0, "background compactor poll cadence: fold the journal and re-base in memory while serving, without a restart (0 disables)")
		follow    = fs.String("follow", "", "serve as a read replica of the leader at this base URL (e.g. http://leader:7411): bootstrap and stay current from its replication log, redirect mutations to it")
		followIv  = fs.Duration("follow-poll", 0, "replication long-poll bound (0 = default 25s)")
		minWait   = fs.Duration("min-epoch-wait", 0, "max time a read carrying X-Authteam-Min-Epoch blocks for replication before redirecting/failing (0 = default 5s)")
		debugAddr = fs.String("debug-addr", "", "private debug listener for pprof and /metrics (e.g. localhost:7511; empty disables)")
		logFormat = fs.String("log-format", "text", "structured log format: text | json")
		readyLagE = fs.Int64("ready-lag-epochs", 0, "follower /readyz turns 503 past this many epochs of replication lag (0 = default 4096, negative disables)")
		slowQuery = fs.Duration("slow-query", 0, "log discoveries slower than this, rate-limited to one line per second (0 disables)")
		noObserve = fs.Bool("no-observe", false, "disable tracing and the latency/maintenance instruments (the /stats counters keep working)")
	)
	fs.Parse(args)

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fail("serve: unknown -log-format %q (want text or json)", *logFormat)
	}

	srv, err := server.New(server.Config{
		Addr:               *addr,
		GraphPath:          *graphPath,
		Gamma:              gamma,
		Lambda:             lambda,
		CacheSize:          *cacheSize,
		RequestTimeout:     *timeout,
		Workers:            *workers,
		NoPersistIndex:     *noPersist,
		WarmIndex:          !*cold,
		JournalPath:        *journal,
		JournalSync:        *jsync,
		CompactThreshold:   *compactAt,
		CompactInterval:    *compactIv,
		FollowURL:          *follow,
		FollowPoll:         *followIv,
		MinEpochWait:       *minWait,
		DebugAddr:          *debugAddr,
		ReadyMaxLagEpochs:  *readyLagE,
		SlowQueryThreshold: *slowQuery,
		NoObserve:          *noObserve,
	})
	if err != nil {
		fail("serve: %v", err)
	}
	if epoch := srv.Store().Epoch(); epoch > 0 {
		slog.Info("teamdisc serve: journal replayed",
			"mutations", epoch-srv.Store().BaseEpoch(),
			"epoch", epoch, "base_epoch", srv.Store().BaseEpoch())
	}
	// Read the banner counts through the snapshot, not srv.Graph() —
	// materializing a full graph just for a log line would start every
	// journaled boot with live.materializations=1.
	snap := srv.Store().Snapshot()
	role := "leader"
	if *follow != "" {
		role = "follower of " + *follow
	}
	slog.Info("teamdisc serve: listening",
		"nodes", snap.NumNodes(), "edges", snap.NumEdges(),
		"addr", *addr, "role", role, "gamma", *gamma, "lambda", *lambda,
		"debug_addr", *debugAddr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx); err != nil {
		fail("serve: %v", err)
	}
	slog.Info("teamdisc serve: drained, bye")
}

// runQuery answers one discovery query and exits (the original CLI).
func runQuery(args []string) {
	fs := flag.NewFlagSet("teamdisc", flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "graph.bin", "expert network file (from dblpgen)")
		skillsArg = fs.String("skills", "", "comma-separated required skills")
		methodArg = fs.String("method", "sa-ca-cc", "cc | ca-cc | sa-ca-cc | random | exact | pareto")
		gamma     = fs.Float64("gamma", 0.6, "connector-authority tradeoff γ")
		lambda    = fs.Float64("lambda", 0.6, "skill-holder-authority tradeoff λ")
		k         = fs.Int("k", 1, "number of teams (top-k)")
		useIndex  = fs.Bool("index", true, "build a 2-hop cover index before searching")
		workers   = fs.Int("workers", 1, "shard the root scan over this many goroutines")
		trials    = fs.Int("trials", core.DefaultRandomTrials, "random baseline trials")
		seed      = fs.Int64("seed", 1, "random baseline seed")
	)
	fs.Parse(args)
	if *skillsArg == "" {
		fail("missing -skills")
	}

	g, err := expertgraph.LoadFile(*graphPath)
	if err != nil {
		fail("load graph: %v", err)
	}
	fmt.Println("graph:", g)

	var project []expertgraph.SkillID
	var names []string
	for _, name := range strings.Split(*skillsArg, ",") {
		name = strings.TrimSpace(name)
		id, ok := g.SkillID(name)
		if !ok {
			fail("unknown skill %q", name)
		}
		project = append(project, id)
		names = append(names, name)
	}

	p, err := transform.Fit(g, *gamma, *lambda, transform.Options{Normalize: true})
	if err != nil {
		fail("%v", err)
	}

	if *methodArg == "pareto" {
		front, err := core.ParetoFront(g, project, core.ParetoOptions{UsePLL: *useIndex})
		if err != nil {
			fail("pareto: %v", err)
		}
		fmt.Printf("Pareto front over (CC, CA, SA) for [%s]: %d teams\n\n",
			strings.Join(names, ", "), len(front))
		for i, f := range front {
			fmt.Printf("#%d  CC=%.4f CA=%.4f SA=%.4f  (found at γ=%.2f λ=%.2f)\n",
				i+1, f.CC, f.CA, f.SA, f.Gamma, f.Lambda)
			printTeam(f.Team, g, p)
		}
		return
	}

	var teams []*team.Team
	switch *methodArg {
	case "cc", "ca-cc", "sa-ca-cc":
		method := map[string]core.Method{
			"cc": core.CC, "ca-cc": core.CACC, "sa-ca-cc": core.SACACC,
		}[*methodArg]
		// With -index the 2-hop cover is built once, by one sequential
		// sweep over the method's search weights, and shared by every
		// root-scan goroutine; the sharded scan requires a
		// concurrency-safe oracle, which the per-root Dijkstra oracle is
		// not, so without -index the scan creates one Dijkstra oracle per
		// worker internally.
		var dist oracle.Oracle
		if *useIndex {
			var weight oracle.WeightFunc
			if method != core.CC {
				weight = p.EdgeWeight()
			}
			dist = oracle.BuildPLL(p.Graph(), weight)
		}
		teams, err = core.TopKParallel(p, method, project, *k, *workers, dist)
	case "random":
		var tm *team.Team
		tm, err = core.Random(p, project, *trials, rand.New(rand.NewSource(*seed)))
		teams = []*team.Team{tm}
	case "exact":
		var tm *team.Team
		tm, err = core.Exact(p, project, core.ExactOptions{})
		teams = []*team.Team{tm}
	default:
		fail("unknown method %q", *methodArg)
	}
	if err != nil {
		fail("discover: %v", err)
	}

	fmt.Printf("%s teams for [%s] (γ=%.2f, λ=%.2f):\n\n",
		strings.ToUpper(*methodArg), strings.Join(names, ", "), *gamma, *lambda)
	for i, tm := range teams {
		fmt.Printf("team #%d\n", i+1)
		printTeam(tm, g, p)
	}
}

func printTeam(tm *team.Team, g *expertgraph.Graph, p *transform.Params) {
	holderSkills := make(map[expertgraph.NodeID][]string)
	for s, c := range tm.Assignment {
		holderSkills[c] = append(holderSkills[c], g.SkillName(s))
	}
	for _, skills := range holderSkills {
		sort.Strings(skills) // Assignment is a map; pin the display order
	}
	for _, u := range tm.Nodes {
		role := "connector"
		if skills := holderSkills[u]; len(skills) > 0 {
			role = "holder: " + strings.Join(skills, ", ")
		}
		fmt.Printf("  %-28s h-index=%-4.0f pubs=%-4d %s\n",
			g.Name(u), g.Authority(u), g.Pubs(u), role)
	}
	s := team.Evaluate(tm, p)
	pr := team.ProfileOf(tm, g)
	fmt.Printf("  -- CC=%.4f CA=%.4f SA=%.4f CA-CC=%.4f SA-CA-CC=%.4f\n",
		s.CC, s.CA, s.SA, s.CACC, s.SACACC)
	fmt.Printf("  -- avg holder h=%.2f  avg connector h=%.2f  team h=%.2f  avg pubs=%.1f\n\n",
		pr.AvgHolderAuth, pr.AvgConnectorAuth, pr.AvgTeamAuth, pr.AvgPubs)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "teamdisc: "+format+"\n", args...)
	os.Exit(1)
}
