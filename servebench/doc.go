// Command servebench is the serving benchmark: one command that boots
// the real serving stack inside its own process, drives one workload
// against it from a seed, checks every output, and prints end-to-end or
// per-layer metrics by name with their units.
//
// Run it from the repository root; it builds itself from the sources
// of the checkout it runs in:
//
//	bash servebench/run.sh --workload read-unique --seed 1 --seconds 40 --trace 0
//	bash servebench/run.sh --workload ingest --seed 1 --seconds 40 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines above it
// are the human-readable report. Builds, the Go build cache, program
// logs, span dumps and each run's temporary directory live under
// .bench_build/. The benchmark's own tests (the tail rule, generator
// validity, a smoke run of every workload) run with
//
//	cd servebench && go test ./...
//
// # The stack
//
// The leader is server.New with the `teamdisc serve` defaults behind a
// 127.0.0.1:0 listener: NumCPU workers, a 1024-entry result cache, a
// warm default-γ index (built in server.New) and indexes persisted next
// to the graph file. Where a workload enables the journal it is written
// with fsync off (the serve default: a write survives a process crash
// through the page cache, not a power loss), and the background
// compactor folds it at its default 8192-record trigger. The ingest
// follower is assembled the way server.New builds one for FollowURL:
// live.Open on an empty graph, repl.NewHTTPSource(...).WithTerm with
// instruments, live.StartFollower. The load uses at most two client
// connections; GOMAXPROCS is left at the CPU count.
//
// # Workloads
//
// The corpora are synthetic DBLP stand-ins from internal/dblp, scaled
// down from the paper's 40K-node graph so that a run fits a 2-core box:
// 800 authors (785 nodes, 2.6k edges, 336 skills) and 10000 authors
// (9.8k nodes, 41k edges).
//
//   - read-unique: the 800-author graph, never changed. Two closed-loop
//     clients walk one seeded list of distinct feasible projects from
//     workload.Generator: 4, 6, 8 or 10 skills (§4 of the paper),
//     methods sa-ca-cc, ca-cc and cc in a 3:1:1 mix, k from 1 to 3,
//     rotating so that every 60 consecutive requests hold each
//     combination once (seeds differ only in the projects drawn).
//     Every request misses the result cache (the list has thousands of
//     distinct keys against 1024 entries, and none repeats), so
//     Algorithm 1's root scan over the 2-hop cover (core and pll) does
//     most of the server's work while live, transform, index
//     maintenance and repl sit idle. Query-path gains show here;
//     write-path changes should not.
//   - read-write: the same graph with the journal on. One open-loop
//     writer sends 10 writes/s; one closed-loop reader draws from a
//     Zipf(s=1.1) pool of 32 sa-ca-cc projects with 4–6 skills. Every
//     write opens an epoch, so the first read at a new epoch pays for
//     an overlay view, a fit and an incremental index repair, while
//     repeats within an epoch hit the cache (32 ≪ 1024 entries). It is
//     the workload with writes beside reads.
//   - ingest: the 10000-author graph, leader configured as in
//     read-write, plus the follower; no discovers. One closed-loop
//     writer streams a mutation list. Request handling, validation,
//     group commit, journal appends, chained views, compaction folds
//     and replication do all the work; core, pll and transform do none.
//     A run covers dozens of folds, so background work reaches the
//     tail. A second closed-loop writer adds no throughput on a 2-CPU
//     machine (the writes share one commit pipeline) but queues behind
//     the first for a share of its writes that drifts between runs, so
//     the write latencies form two modes with the median between them.
//     In four back-to-back pairs of 20 s runs on a 2-CPU machine, two
//     writers gave write p50s of 0.095–0.130 ms and one writer
//     0.052–0.062 ms.
//
// BENCHMARK.json lists read-unique and ingest. read-write runs with the
// same command but is not listed, because its figures are not steady
// enough to hold a bound on this kind of machine: its one in-flight
// discover splits its root scan over both CPUs, so whatever CPU time
// the host takes away stalls the whole request, and fewer discovers per
// epoch then means fewer cache hits. Across runs with 0.7–10.8% CPU
// steal its discovers/s ranged 28–40, and five-seed sets had
// interquartile spreads of 0.16–0.36 of the median. Its discover cost
// also climbs within a run, because incremental repair keeps superset
// labels: over 300 writes the default-γ cover grows from 28k to 45k
// entries where a fresh build has 30k, and discovers get ~70% slower.
// Use it with --trace 1 for the repair path's per-layer figures.
// Those figures (server.cache_hit_ratio, pll.repair_*,
// transform.refit_ms and live.view_ms below) are idle on the two listed
// workloads, so they are printed in every traced report but left out of
// the JSON result and of BENCHMARK.json. The transform layer is still
// measured on both listed workloads: transform.fit_ms times the fit
// directly, as pll.build_s times the cover build.
//
// # Load discipline
//
// Every input — corpus, project lists, pool draws, mutation lists — is
// generated before anything is timed; the program sees only the graph
// file and HTTP requests, so two commits do identical work. The corpus,
// read-write's project pool and the set-up's warm-up project use a
// fixed seed; --seed varies the traffic. Corpora of different seeds
// differ in per-discover cost by up to a quarter, and pools by more,
// which would swamp the bounds; the warm-up discovers are a large part
// of a set-up on the small graph.
//
// Mutations are generated against a shadow copy of the graph, so every
// one is valid in any interleaving and any non-2xx reply is a real
// failure: writer i of n owns the base edges (u, v) with (u+v) mod n =
// i, the base nodes with id mod n = i, and whatever it adds; removals
// touch only edges the stream added; a re-weight always changes the
// weight; weights and authorities stay inside the base graph's ranges,
// so no write widens the normalization bounds. The kinds: add a
// collaboration between existing experts, re-weight one, raise an
// expert's authority by 1 (an h-index tick), remove a collaboration the
// stream added, and add an expert (at the base graph's lowest
// authority, with 1–3 vocabulary skills) together with its first
// collaboration.
//
// The shares of the kinds are not chosen; they are measured on the
// corpus model each workload's graph comes from. The papers of the
// corpus's last five years are replayed, year by year, over the
// bibliography before them: a coauthor pair that never published
// together is an add (triadic when the two already shared a coauthor,
// and the generator closes that share of its adds over a coauthor's
// coauthor), a repeat pair a re-weight (their Jaccard weight moves), a
// rise of an author's h-index a tick, and an author's first paper a new
// expert. The model never ends a collaboration; removals are set to the
// rate of adds so the edge count stays level. The run prints the mix;
// on the 10000-author corpus it is 30.2% add (29% of them triadic),
// 32.1% re-weight, 6.6% tick, 30.2% remove, 0.94% new expert, and on
// the 800-author corpus 28.1% add (37% triadic), 32.7% re-weight, 10.1%
// tick, 28.1% remove, 1.01% new expert. The node count therefore grows
// by about 1% of the writes a run makes (the model's newcomers), while
// the edge count stays near the base graph's. Where the model is
// simplified: every paper of an author moves the Jaccard weight of all
// of the author's collaborations, but only the pair that published
// together is counted as a re-weight; and the model's citations are
// fixed at publication, so h-index ticks come only from new papers.
//
// Discovers are closed loop. read-write's writer is open loop: each
// write is timed from its scheduled send time, so a stall also charges
// the writes queued behind it on the one connection; the report shows
// how late sends left, and a run whose generator itself was late by a
// whole send interval (100 ms) while its connection was idle is marked
// invalid. Ingest's writer is closed loop, like a bulk importer waiting
// on each ack.
//
// The request and mutation lists are sized for a program several times
// faster than today's. A client that reaches the end of its list before
// the deadline records a failure, so such a run is never taken for a
// measurement of the whole timed phase.
//
// # End-to-end metrics
//
// Every untraced run prints five metrics, in the JSON and in the
// report. They have the same names on every workload; ops_per_s and
// op_*_ms describe the operation the workload's clients wait on.
//
//	name        unit  definition
//	setup_s     s     server.New on the graph file until the leader is ready
//	                  and one warm-up discover per method the workload sends
//	                  has returned (read-unique: all three; read-write:
//	                  sa-ca-cc; ingest: none, but the follower has adopted
//	                  the leader's base). This is the cold start a restart
//	                  pays, lazy index builds included. Median of 25
//	                  set-ups (read-write: 15, ingest: 5), each in a fresh
//	                  directory.
//	ops_per_s   1/s   discovers (read-unique, read-write) or acknowledged
//	                  writes (ingest) completed per second of the timed
//	                  phase.
//	op_p50_ms   ms    median round trip of those operations.
//	op_tail_ms  ms    their tail: the highest of p90, p99.9 and p99.99 with
//	                  at least ten samples beyond it (p90 for discovers,
//	                  p99.99 for ingest's writes), printed with the
//	                  percentile and n.
//	heap_mb     MB    live Go heap after a forced GC at the end of the timed
//	                  phase, after the benchmark's own lists and samples are
//	                  dropped. On ingest the follower is released first: it
//	                  keeps every replicated record (it has no journal to
//	                  fold into), so it would count the run's writes, not
//	                  the program's footprint. The leader's graph does hold
//	                  the experts the run added (about 1% of its writes),
//	                  so ingest's heap grows a little with its write rate.
//
// The report also prints the workload's figures under their own names:
// discover_per_s, discover_p50_ms, discover_tail_ms (read-unique,
// read-write); write_p50_ms, write_tail_ms (read-write, ingest; ack
// latency from the scheduled send in the open loop, from the send in a
// closed loop); writes_per_s, visible_p50_ms, visible_tail_ms (ingest;
// from a write's send until the follower's store reaches its acked
// epoch); failed_ratio (failed over attempted operations: transport
// errors, timeouts, unexpected statuses and replies the checks reject).
// failed_ratio is 0 at a correct commit, so it is carried by the JSON's
// attempted and failed counts instead of a metric.
//
// The tail's rungs are a decade or more apart, so its percentile only
// changes when a run's sample count crosses 10000 (discovers: under
// 2000 a run today) or falls below 100000 (ingest's writes: about 500000),
// which no plausible change in throughput does. At p99.99 one write in
// 10000 lies beyond the tail, while a fold comes every 8192 writes and
// may stall the writer once, so a stall per fold reaches op_tail_ms at
// any write rate.
//
// Steadiness: on a shared 2-vCPU virtual machine, two sets of ten seeds
// per workload taken half an hour apart had interquartile spreads of
// 0.08–0.12 of the median on every read-unique timing. Ingest's write
// round trip (30–60 µs) follows the host's speed most closely: its
// op_p50_ms medians were 0.041 and 0.057 ms, with spreads of 0.25 and
// 0.09, while its ops_per_s spreads were 0.16 and 0.09. Across the two
// sets, ingest runs ranged from a 0.034 ms write p50 at 15.9k writes/s
// to 0.063 ms at 10.8k, and read-unique runs from a 36 to a 45 ms
// discover p50: the host's speed, more than the program, sets the
// spread between runs taken far apart.
//
// # Per-layer metrics
//
// A traced run (--trace 1) runs the workload twice on fresh stacks with
// the same inputs, untraced and then traced, and prints the difference
// as the tracing overhead. The traced run records spans (name, start,
// end, parent, request id) only in the benchmark's own code: around
// every HTTP call into the server, with the reply's X-Authteam-Trace
// laps attached as children, and around direct calls into layers. The
// follower's source is wrapped in a type that implements
// live.GroupedSource (a plain ReplicationSource wrapper would switch the
// follower to flat tails). Spans stay in memory, are reduced to a self
// time per layer (a span's duration minus what its children cover), and
// are written to .bench_build/spans/<workload>-seed<N>.jsonl. Counters
// are /stats and /metrics deltas over the timed phase. A layer with no
// work on a workload reports 0.
//
//	name                       unit      measured as
//	server.overhead_ms         ms        p50 of round trip minus the reply's traced total
//	                                     (routing, JSON, loopback)
//	server.cache_hit_ratio     fraction  cached replies / discovers
//	core.search_ms             ms        p50 of the search lap
//	core.merge_ms              ms        p50 of the merge lap
//	team.score_ms              ms        p50 of the score lap
//	pll.dist_calls             count     Dist calls per discover, counted by an oracle
//	                                     wrapper while sampled requests replay in-process
//	                                     through core.TopKParallelStaged (one worker)
//	                                     over covers built with pll.BuildWithOptions
//	pll.dist_ns                ns        that replay's search span / its Dist calls
//	pll.build_s                s         one pll.BuildWithOptions of the default-γ G′
//	                                     cover, NumCPU workers, on the base graph
//	transform.fit_ms           ms        p50 of 25 transform.Fit calls of the default
//	                                     γ and λ on the base graph
//	pll.repair_ms              ms        p50 of the index lap on fresh-epoch discovers
//	pll.repair_visits          count     index repair visits / incremental repairs
//	pll.repair_ratio           fraction  incremental repairs / (repairs + full rebuilds)
//	transform.refit_ms         ms        p50 of the fit lap on fresh-epoch discovers
//	live.view_ms               ms        p50 of the resolve lap on fresh-epoch discovers
//	live.refolds_per_kepoch    count     overlay refolds per 1000 epochs
//	live.apply_ms              ms        p50 of one live.Store mutator call while the
//	                                     acknowledged writes replay into a store opened
//	                                     like the leader's
//	live.ops_per_commit        count     epochs advanced / group commits
//	live.fold_ms               ms        p50 fold duration (CompactorConfig.OnFold) in
//	                                     that replay
//	live.folds                 count     compactions during the timed phase
//	live.journal_bytes_per_op  bytes     journal bytes / journal records in that replay,
//	                                     read when the journal held the most records
//	repl.tail_ms               ms        p50 round trip of follower tails that returned
//	                                     records
//	repl.records_per_tail      count     records per non-empty tail
//
// Which end-to-end figure each should move: server.overhead_ms,
// core.*, team.score_ms and the pll query metrics move discover p50 and
// rate on read-unique; pll.build_s and transform.fit_ms move setup_s on
// read-unique and ingest; pll.repair_*, transform.refit_ms,
// live.view_ms and server.cache_hit_ratio move discovers on read-write;
// live.apply_ms, live.ops_per_commit and live.journal_bytes_per_op move
// ingest's write rate and p50; live.fold_ms and live.folds its write
// tail; repl.* its visibility. Idle by construction: core, team, the
// transform refit and the pll query and repair metrics on ingest;
// live's write path and repl on read-unique. pll.build_s and
// transform.fit_ms time direct calls on each workload's base graph, so
// they are never idle.
//
// # Output checks
//
// Every discover reply must cover each requested skill with a member
// who holds it and carry finite scores; on read-write its epoch must be
// at least the last write acknowledged before the request left. Eight
// sampled read-unique replies are recomputed in-process with core's
// TopK over per-root Dijkstra (no index): roots, members and scores
// must match. Index and Dijkstra distances can differ in their last
// bits, so when two holders of a skill cost the method exactly the same
// the two runs may pick different ones; such a team is accepted only
// when its root and the method's own objective score (cc, ca_cc or
// sa_ca_cc) match, and the report counts it as a tie. At the end of
// ingest the follower's epoch must equal the leader's, the last records
// of both stores' TailSince must be identical, and the leader's
// journal, reopened with live.Open, must replay to the last acknowledged
// epoch with the same node and edge counts (restart durability with
// fsync off).
//
// # Run hygiene
//
// Each run uses a fresh temporary directory under .bench_build/runs and
// removes it. The program's slog lines go to .bench_build/logs, never to
// the metric output. The report's header stamps the CPU count,
// GOMAXPROCS, Go version, the VCS revision the binary was built from
// (when the build saw one), a digest of the checkout's Go sources, the
// seed and the corpus sizes.
//
// # Known gap: the embedded client
//
// The embedded-client path (authteam.Client) is not a workload until a
// program fix lands: a following Client with BuildIndex: true panics on
// its first query after it bootstraps from a leader that never folded,
// with an index out of range in pll.(*DynamicIndex).InsertEdge, reached
// through live.MaintainIndex from Client.refreshIndex. The index built
// on the empty pre-bootstrap graph is repaired across the epoch-0 base
// adoption. To reproduce: start a leader with server.New, make one
// write, create authteam.New(nil, Options{Follow: url, BuildIndex:
// true}), call WaitEpoch, then TopK.
package main
