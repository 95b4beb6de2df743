package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloadSpec describes one workload. See the package documentation
// for why each exists.
type workloadSpec struct {
	authors int
	stack   stackConfig
	// foreground names the operation the workload's clients wait on:
	// its rate and latency are the ops_per_s / op_*_ms metrics.
	foreground string
	// setupReps is how many times an untraced run boots the stack;
	// setup_s is the median and the last stack serves the timed phase.
	setupReps int
	// warm lists the methods set-up sends one warm-up discover for: the
	// methods the workload's load uses, whose indexes a restart builds
	// lazily before it can serve that load. Ingest sends no discovers.
	warm []string
}

// Corpus sizes: 800 authors give 785 nodes and 2.6k edges, 10000
// authors 9.8k nodes and 41k edges.
const (
	readAuthors   = 800
	ingestAuthors = 10000
)

var workloads = map[string]workloadSpec{
	"read-unique": {
		authors: readAuthors, foreground: "discover", setupReps: 25,
		warm: []string{"sa-ca-cc", "ca-cc", "cc"},
	},
	"read-write": {
		authors: readAuthors, stack: stackConfig{journal: true}, foreground: "discover", setupReps: 15,
		warm: []string{"sa-ca-cc"},
	},
	"ingest": {
		authors: ingestAuthors, stack: stackConfig{journal: true, follower: true}, foreground: "write", setupReps: 5,
	},
}

// ingestWriters is how many closed-loop writers ingest runs. One: a
// second adds no throughput on a 2-CPU machine but queues behind the
// first for a share of its writes that drifts between runs, which makes
// the write p50 unsteady (see the package documentation). The generator
// partitions the graph for any writer count.
const ingestWriters = 1

// corpusSeed pins the synthetic corpus, read-write's pool of popular
// projects and the set-up's warm-up project. Corpora of different
// seeds differ in per-discover cost by up to a quarter, and 32-project
// pools by more, which is more than the bounds the end-to-end metrics
// are held to, and a warm-up discover is a large part of a set-up on
// the small graph; so --seed varies the traffic (request lists, pool
// draws, mutation lists), not the dataset or the set-up.
const corpusSeed = 1

// recomputeSample is how many read-unique replies are recomputed
// in-process, and replaySample how many requests the traced run
// replays to count Dist calls.
const (
	recomputeSample = 8
	replaySample    = 24
)

// endToEnd lists the metrics every untraced run prints, in
// BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"heap_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

func run() int {
	name := flag.String("workload", "", "read-unique | read-write | ingest")
	seed := flag.Int64("seed", 1, "seed for the corpus, request lists and mutation lists")
	seconds := flag.Float64("seconds", 10, "length of each timed phase")
	trace := flag.Int("trace", 0, "1: trace a run and print the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		logf("usage: servebench --workload read-unique|read-write|ingest --seed N --seconds S --trace 0|1")
		return 2
	}
	out := ".bench_build"
	for _, dir := range []string{"runs", "logs", "spans"} {
		if err := os.MkdirAll(filepath.Join(out, dir), 0o755); err != nil {
			logf("%v", err)
			return 1
		}
	}
	// The program's own slog lines ("compacted journal", …) go to a
	// log file, never to the metric output on stdout.
	logPath := filepath.Join(out, "logs", fmt.Sprintf("%s-seed%d-trace%d.log", *name, *seed, *trace))
	logFile, err := os.Create(logPath)
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer logFile.Close()
	slog.SetDefault(slog.New(slog.NewTextHandler(logFile, nil)))
	runDir, err := os.MkdirTemp(filepath.Join(out, "runs"), *name+"-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{name: *name, spec: spec, seed: *seed, seconds: *seconds, dir: runDir, out: out}
	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		logf("%s: %v", *name, err)
		return 1
	}
	fmt.Printf("program log: %s\n", logPath)
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// bench is one invocation: a workload, its seed and its inputs.
type bench struct {
	name    string
	spec    workloadSpec
	seed    int64
	seconds float64
	dir     string
	out     string

	c    *corpus
	warm []discoverReq
	// read-unique
	unique  []discoverReq
	sampled map[int]bool
	// read-write
	pool   []discoverReq
	draws  []int
	writes [][]mutation // one list per writer (read-write, ingest)
}

// prepare generates every input from the seed, before anything is
// timed.
func (b *bench) prepare() error {
	start := time.Now()
	var err error
	if b.c, err = newCorpus(b.spec.authors, corpusSeed); err != nil {
		return err
	}
	if b.warm, err = warmupReqs(b.c, corpusSeed, b.spec.warm); err != nil {
		return err
	}
	exclude := map[string]bool{}
	for _, r := range b.warm {
		exclude[r.key()] = true
	}
	// List lengths leave head-room for a program several times faster
	// than today's (ingest: about 12k writes/s now); a client that
	// exhausts its list before the deadline fails the run.
	secs := int(b.seconds + 1)
	switch b.name {
	case "read-unique":
		if b.unique, err = uniqueProjects(b.c, max(2000, 400*secs), b.seed, exclude); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(b.seed))
		b.sampled = make(map[int]bool)
		for _, i := range rng.Perm(min(len(b.unique), 20*recomputeSample))[:recomputeSample] {
			b.sampled[i] = true
		}
	case "read-write":
		if b.pool, b.draws, err = zipfPool(b.c, 32, 1000*secs, corpusSeed, b.seed); err != nil {
			return err
		}
		b.writes = [][]mutation{newMutGen(b.c, b.seed, 0, 1).list(writeRate*secs + 1)}
	case "ingest":
		for w := range ingestWriters {
			b.writes = append(b.writes, newMutGen(b.c, b.seed, w, ingestWriters).list(40000*secs))
		}
	}
	g := b.c.g
	fmt.Printf("inputs: corpus %d authors → %d nodes, %d edges, %d skills; generated in %.2fs\n",
		b.c.authors, g.NumNodes(), g.NumEdges(), g.NumSkills(), time.Since(start).Seconds())
	if len(b.writes) > 0 {
		fmt.Printf("mutation mix (the corpus model's last %d years): %v\n", mixYears, b.c.mix)
	}
	return nil
}

func (b *bench) header(trace int) {
	fmt.Printf("servebench: workload=%s seed=%d seconds=%g trace=%d\n", b.name, b.seed, b.seconds, trace)
	fmt.Printf("env: cpus=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceDigest())
}

// boot starts a stack in a fresh directory under the run's temp dir.
func (b *bench) boot(tag string, rec *recorder) (*stack, error) {
	dir := filepath.Join(b.dir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return bootStack(b.c, dir, b.spec.stack, b.warm, rec)
}

// timed runs the workload's load once on st and its output checks.
func (b *bench) timed(st *stack, rec *recorder) (*phase, map[int]keptReply) {
	d := &loadgen{st: st, rec: rec, checker: newChecker(b.c), ph: newPhase()}
	runtime.GC() // leave set-up garbage out of the timed phase
	var kept map[int]keptReply
	switch b.name {
	case "read-unique":
		kept = d.runReadUnique(b.unique, b.seconds, b.sampled)
	case "read-write":
		d.runReadWrite(b.writes[0], b.pool, b.draws, b.seconds)
	case "ingest":
		d.runIngest(b.writes, b.seconds)
	}
	return d.ph, kept
}

// checkFollower runs ingest's follower checks and then releases the
// follower: its store keeps every replicated record (it has no journal
// to fold into), so the live heap measured after this counts the
// program's footprint rather than the number of writes the run made.
func (b *bench) checkFollower(st *stack, ph *phase) ([]string, error) {
	if st.follower == nil {
		return nil, nil
	}
	defer st.releaseFollower()
	return followerChecks(st, ph.lastEpoch)
}

// check runs the remaining output checks and returns their report
// lines. It closes st on ingest (the journal is reopened).
func (b *bench) check(st *stack, ph *phase, kept map[int]keptReply) ([]string, error) {
	var lines []string
	switch b.name {
	case "read-unique":
		n, ties, err := recompute(b.c, kept)
		if err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("%d sampled replies match Algorithm 1 recomputed in-process over per-root Dijkstra "+
			"(roots, members, scores; %d teams tie on the method's objective with other holders)", n, ties))
	case "read-write":
		lines = append(lines, "every reply's epoch ≥ the last write acknowledged before it was sent")
		if worst := quantile(ph.genLate.sorted(), 1); worst > ms(genLateBound) {
			return nil, fmt.Errorf("INVALID run: the open-loop writer itself fell behind schedule by up to %.1f ms (bound %v)",
				worst, genLateBound)
		}
	case "ingest":
		l, err := journalCheck(st, b.c, ph.lastEpoch)
		if err != nil {
			return nil, err
		}
		lines = append(lines, l)
	}
	if b.spec.foreground == "discover" {
		lines = append(lines, "every discover reply covers each requested skill with a holder and has finite scores")
	}
	return lines, nil
}

// foreground returns the workload's foreground rate over the whole
// timed phase and its latencies.
func (b *bench) foreground(ph *phase) (float64, samples) {
	lat := ph.discovers
	if b.spec.foreground == "write" {
		lat = ph.writes
	}
	return rate(len(lat), ph.elapsed), lat
}

func (b *bench) untraced() (*result, error) {
	b.header(0)
	if err := b.prepare(); err != nil {
		return nil, err
	}
	var setups []float64
	var st *stack
	for rep := range b.spec.setupReps {
		runtime.GC() // each set-up starts from the same collected heap
		var err error
		if st, err = b.boot(fmt.Sprintf("setup%d", rep), nil); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, st.setup.Seconds())
		if rep < b.spec.setupReps-1 {
			st.close()
		}
	}
	defer st.close()
	ph, kept := b.timed(st, nil)
	rate, lat := b.foreground(ph)
	fg := lat.summary()
	b.report(ph)
	lines, cerr := b.checkFollower(st, ph)
	// The load lists and the phase's samples are the benchmark's, not
	// the program's: drop them before measuring the live heap.
	b.unique, b.pool, b.draws, b.writes = nil, nil, nil, nil
	ph.dropSamples()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	fmt.Printf("setup_s: %.4f s (median of %d set-ups: %s)\n", median(setups), len(setups), floats(setups, 4))
	released := ""
	if b.spec.stack.follower {
		released = ", follower released"
	}
	fmt.Printf("heap_mb: %.3f MB (live heap after a forced GC at the end of the timed phase%s)\n", heapMB, released)
	if cerr == nil {
		var more []string
		more, cerr = b.check(st, ph, kept)
		lines = append(lines, more...)
	}
	values := map[string]float64{
		"setup_s":    median(setups),
		"ops_per_s":  rate,
		"op_p50_ms":  fg.P50,
		"op_tail_ms": fg.Tail,
		"heap_mb":    heapMB,
	}
	res := &result{
		Correct:   b.printChecks(ph, lines, cerr),
		Attempted: ph.attempted,
		Failed:    ph.failures.count(),
		Metrics:   make(map[string]metricValue, len(endToEnd)),
	}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metricValue{values[def.name], def.unit}
	}
	return res, nil
}

// report prints the workload's end-to-end metrics under their own
// names, each with its unit.
func (b *bench) report(ph *phase) {
	fmt.Printf("timed phase: %.3f s\n", ph.elapsed.Seconds())
	if b.spec.foreground == "discover" {
		d := ph.discovers.summary()
		fmt.Printf("discover_per_s: %.3f 1/s\n", rate(d.N, ph.elapsed))
		fmt.Printf("discover_p50_ms: %.4f ms\n", d.P50)
		fmt.Printf("discover_tail_ms: %.4f ms (%s)\n", d.Tail, d.tailLabel())
		fmt.Printf("cached discover replies: %d of %d\n", ph.cached, d.N)
	}
	if b.name != "read-unique" {
		w := ph.writes.summary()
		fmt.Printf("write_p50_ms: %.4f ms\n", w.P50)
		fmt.Printf("write_tail_ms: %.4f ms (%s)\n", w.Tail, w.tailLabel())
	}
	if b.name == "ingest" {
		v := ph.visible.summary()
		fmt.Printf("writes_per_s: %.3f 1/s\n", rate(len(ph.writes), ph.elapsed))
		fmt.Printf("visible_p50_ms: %.4f ms\n", v.P50)
		fmt.Printf("visible_tail_ms: %.4f ms (%s)\n", v.Tail, v.tailLabel())
	}
	if b.name == "read-write" {
		late, gen := ph.sendLate.summary(), ph.genLate.summary()
		fmt.Printf("open-loop writer behind schedule: sends %s; generator's own share %s\n", late, gen)
	}
	failed := ph.failures.count()
	fmt.Printf("failed_ratio: %g fraction (%d of %d operations)\n", ratio(float64(failed), float64(ph.attempted)), failed, ph.attempted)
	ph.failures.mu.Lock()
	for reason, n := range ph.failures.reasons {
		fmt.Printf("  failure %q: %d (e.g. %s)\n", reason, n, ph.failures.example[reason])
	}
	ph.failures.mu.Unlock()
}

func (b *bench) printChecks(ph *phase, lines []string, err error) bool {
	for _, l := range lines {
		fmt.Printf("check ok: %s\n", l)
	}
	if err != nil {
		fmt.Printf("check FAILED: %v\n", err)
	}
	return err == nil && ph.failures.count() == 0 && ph.attempted > 0
}

func floats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", prec, x)
	}
	return strings.Join(parts, " ")
}

// traced runs the workload twice on fresh stacks with the same inputs,
// untraced and then with spans on, and prints the per-layer metrics of
// the traced run and the difference between the two (the tracing
// overhead).
func (b *bench) traced() (*result, error) {
	b.header(1)
	if err := b.prepare(); err != nil {
		return nil, err
	}
	st, err := b.boot("plain", nil)
	if err != nil {
		return nil, err
	}
	plain, _ := b.timed(st, nil)
	st.close()
	plainRate, plainLat := b.foreground(plain)

	rec := newRecorder()
	st, err = b.boot("traced", rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	ph, kept := b.timed(st, rec)
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}
	b.report(ph)
	fsrc := st.fsrc
	lines, cerr := b.checkFollower(st, ph)
	if cerr == nil {
		var more []string
		more, cerr = b.check(st, ph, kept)
		lines = append(lines, more...)
	}
	correct := b.printChecks(ph, lines, cerr)

	var rp replays
	gix, p, err := buildCover(b.c, rec, &rp)
	if err != nil {
		return nil, err
	}
	if b.name == "read-unique" {
		rp.distCalls, rp.distNS, err = distReplay(b.c, b.unique[:min(replaySample, len(b.unique))], gix, p, rec)
	} else if b.name == "read-write" {
		rp.distCalls, rp.distNS, err = distReplay(b.c, b.pool, gix, p, rec)
	}
	if err != nil {
		return nil, err
	}
	if len(b.writes) > 0 {
		if err := applyReplay(b.c, b.writes, ph.writerDone, b.dir, rec, &rp); err != nil {
			return nil, err
		}
	}
	m := layerMetrics(ph, before, after, rp, fsrc)

	rate, lat := b.foreground(ph)
	fmt.Printf("tracing overhead on the %s path: %s/s %.3f → %.3f (%+.2f%%), p50 %.4f → %.4f ms (%+.2f%%)\n",
		b.spec.foreground, b.spec.foreground, plainRate, rate, 100*(rate/plainRate-1),
		plainLat.p50(), lat.p50(), 100*(lat.p50()/plainLat.p50()-1))
	printSelfTimes(rec.selfTimes(), len(lat))
	spans := filepath.Join(b.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := rec.dump(spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", rec.len(), spans)

	res := &result{
		Correct:   correct && plain.failures.count() == 0,
		Attempted: plain.attempted + ph.attempted,
		Failed:    plain.failures.count() + ph.failures.count(),
		Metrics:   make(map[string]metricValue, len(layerDefs)),
	}
	for _, def := range layerDefs {
		res.Metrics[def.name] = metricValue{m[def.name], def.unit}
	}
	for _, def := range append(append([]metricDef(nil), layerDefs...), readWriteDefs...) {
		note := ""
		if m[def.name] == 0 {
			note = "  (layer idle on this workload)"
		}
		fmt.Printf("%s: %.6g %s%s\n", def.name, m[def.name], def.unit, note)
	}
	return res, nil
}

// commit is the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the checkout's Go sources, which identifies the
// code measured even where the checkout carries no VCS metadata.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == ".bench_build" || path == ".git"):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	h := sha256.New()
	for _, f := range files { // WalkDir visits in lexical order
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(f + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
