package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/repl"
)

// span is one traced interval, recorded only by the benchmark's own
// code: around an HTTP call into the server, around a direct call into
// a layer, or — as a child of an HTTP span — one X-Authteam-Trace lap
// the server reported. Lap children carry their measured duration; the
// server does not report where inside the round trip they started, so
// they are laid end to end from the parent's start.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_ms"` // since the recorder started
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay one branch.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return ms(t.Sub(r.t0)) }

// record stores a finished span and returns its id (0 when r is nil).
func (r *recorder) record(parent, req int64, name, layer string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.ids.Add(1)
	if req == 0 {
		req = id
	}
	sp := span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: r.at(start), End: r.at(end)}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return id
}

// lapLayer maps an X-Authteam-Trace stage to the module that does the
// stage's work.
var lapLayer = map[string]string{
	"resolve": "live",      // epoch snapshot + overlay view
	"fit":     "transform", // normalization fit for the epoch
	"index":   "pll",       // index lookup or incremental repair
	"search":  "core",      // Algorithm 1 root scan (its Dist calls included)
	"merge":   "core",      // top-k re-rank and dedup
	"score":   "team",      // team scoring and serialization
	"cache":   "server",    // result-cache hit
}

// lap is one stage of an X-Authteam-Trace header.
type lap struct {
	stage string
	ms    float64
}

// parseLaps parses an X-Authteam-Trace header ("stage=ms;stage=ms"),
// keeping the stages' order.
func parseLaps(header string) []lap {
	var out []lap
	for _, part := range strings.Split(header, ";") {
		stage, val, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out = append(out, lap{stage, v})
		}
	}
	return out
}

// recordLaps attaches the server's laps as children of an HTTP span.
func (r *recorder) recordLaps(parent int64, start time.Time, ls []lap) {
	if r == nil {
		return
	}
	at := start
	for _, l := range ls {
		end := at.Add(time.Duration(l.ms * float64(time.Millisecond)))
		layer := lapLayer[l.stage]
		if layer == "" {
			layer = "server"
		}
		r.record(parent, parent, "lap."+l.stage, layer, at, end)
		at = end
	}
}

// selfTimes reduces the spans to the self time per layer: each span's
// duration minus the part its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]float64)
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.dur()
		}
	}
	out := make(map[string]float64)
	for _, sp := range r.spans {
		out[sp.Layer] += max(sp.dur()-child[sp.ID], 0)
	}
	return out
}

// dump writes the spans as JSON lines.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// printSelfTimes prints the per-layer self-time breakdown.
func printSelfTimes(self map[string]float64, ops int) {
	layers := make([]string, 0, len(self))
	total := 0.0
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("self time by layer (sum of span self times; %d foreground ops):\n", ops)
	for _, l := range layers {
		fmt.Printf("  %-10s %10.1f ms  %5.1f%%  %8.4f ms/op\n", l, self[l], 100*ratio(self[l], total), ratio(self[l], float64(ops)))
	}
}

// tracedSource wraps the follower's HTTP source. It implements
// live.GroupedSource: wrapping only live.ReplicationSource would make
// the follower fall back to flat, per-record tails.
type tracedSource struct {
	src *repl.HTTPSource
	rec *recorder
	mu  sync.Mutex
	// Round trips of tails that returned records, and their records.
	tailMS  samples
	records int
}

var _ live.GroupedSource = (*tracedSource)(nil)

func (t *tracedSource) Tail(ctx context.Context, from uint64, max int) ([]live.Mutation, uint64, error) {
	start := time.Now()
	muts, epoch, err := t.src.Tail(ctx, from, max)
	t.note("repl.tail", start, len(muts))
	return muts, epoch, err
}

func (t *tracedSource) TailGroups(ctx context.Context, from uint64, max int) ([][]live.Mutation, uint64, error) {
	start := time.Now()
	groups, epoch, err := t.src.TailGroups(ctx, from, max)
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	t.note("repl.tail_groups", start, n)
	return groups, epoch, err
}

func (t *tracedSource) Base(ctx context.Context) (*expertgraph.Graph, uint64, uint64, error) {
	start := time.Now()
	g, epoch, term, err := t.src.Base(ctx)
	t.rec.record(0, 0, "repl.base", "repl", start, time.Now())
	return g, epoch, term, err
}

func (t *tracedSource) note(name string, start time.Time, n int) {
	end := time.Now()
	if n == 0 {
		return // an idle long-poll measures the write gap, not the layer
	}
	t.rec.record(0, 0, name, "repl", start, end)
	t.mu.Lock()
	t.tailMS = append(t.tailMS, ms(end.Sub(start)))
	t.records += n
	t.mu.Unlock()
}
