package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/server"
)

// phase is what one timed phase measured.
type phase struct {
	elapsed   time.Duration
	discovers samples // client round trip of every successful discover
	writes    samples // ack latency of every successful write
	visible   samples // write send → follower store at the write's epoch
	attempted int
	failures  failures

	cached int // discover replies answered from the result cache

	// Open-loop writer: how late sends left against their schedule, and
	// the part of that lateness the generator itself caused (a send
	// that was due while the connection was idle but left late).
	sendLate, genLate samples

	// Traced runs only: per-stage laps from X-Authteam-Trace, the same
	// laps on discovers that landed on a fresh epoch, and the round trip
	// minus the server's traced total.
	laps, freshLaps map[string]*samples
	overhead        samples

	// List positions each writer reached (for the in-process replay).
	writerDone []int
	lastEpoch  uint64 // highest acknowledged write epoch
}

// failures counts failed operations by reason, keeping one example.
type failures struct {
	mu      sync.Mutex
	n       int
	reasons map[string]int
	example map[string]string
}

func (f *failures) add(reason string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.reasons == nil {
		f.reasons, f.example = make(map[string]int), make(map[string]string)
	}
	f.reasons[reason]++
	if _, ok := f.example[reason]; !ok && err != nil {
		f.example[reason] = err.Error()
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// dropSamples releases the per-operation samples once they have been
// reduced, so the live heap measured next is the program's.
func (ph *phase) dropSamples() {
	ph.discovers, ph.writes, ph.visible = nil, nil, nil
	ph.laps, ph.freshLaps, ph.overhead = nil, nil, nil
}

func newPhase() *phase {
	return &phase{laps: make(map[string]*samples), freshLaps: make(map[string]*samples)}
}

// loadgen runs a workload's load against one stack.
type loadgen struct {
	st      *stack
	rec     *recorder
	checker *checker
	mu      sync.Mutex // guards the phase's sample slices
	ph      *phase
}

// discoverOnce sends one discover, checks the reply and records it. It
// returns the reply (nil on failure).
func (d *loadgen) discoverOnce(r discoverReq, body []byte, minEpoch uint64, prevEpoch *uint64) *server.DiscoverResponse {
	start := time.Now()
	out, trace, rt, err := d.st.do(http.MethodPost, "/v1/discover", body, http.StatusOK)
	end := start.Add(rt)
	id := d.rec.record(0, 0, "http.discover", "server", start, end)
	d.mu.Lock()
	d.ph.attempted++
	d.mu.Unlock()
	if err != nil {
		d.ph.failures.add(failReason(err), err)
		return nil
	}
	var resp server.DiscoverResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		d.ph.failures.add("undecodable reply", err)
		return nil
	}
	if err := d.checker.reply(r, &resp, minEpoch); err != nil {
		d.ph.failures.add("reply check", err)
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ph.discovers = append(d.ph.discovers, ms(rt))
	if resp.Cached {
		d.ph.cached++
	}
	fresh := prevEpoch != nil && resp.Epoch != *prevEpoch && !resp.Cached
	if prevEpoch != nil {
		*prevEpoch = resp.Epoch
	}
	if d.rec != nil {
		ls := parseLaps(trace)
		d.rec.recordLaps(id, start, ls)
		total := 0.0
		for _, l := range ls {
			total += l.ms
			addTo(d.ph.laps, l.stage, l.ms)
			if fresh {
				addTo(d.ph.freshLaps, l.stage, l.ms)
			}
		}
		d.ph.overhead = append(d.ph.overhead, ms(rt)-total)
	}
	return &resp
}

func addTo(m map[string]*samples, key string, v float64) {
	s := m[key]
	if s == nil {
		s = new(samples)
		m[key] = s
	}
	*s = append(*s, v)
}

func failReason(err error) string {
	if he, ok := err.(*httpError); ok {
		return fmt.Sprintf("HTTP %d", he.status)
	}
	return "transport"
}

// writeOnce sends one mutation and returns its acknowledged epoch (and
// the assigned ID for an added expert), or ok=false on failure. The
// latency is charged from `from`: the scheduled send time in an open
// loop, the send time in a closed one.
func (d *loadgen) writeOnce(m *mutation, added []expertgraph.NodeID, from time.Time) (epoch uint64, id expertgraph.NodeID, ok bool) {
	method, path, body, want := m.request(added)
	start := time.Now()
	out, _, rt, err := d.st.do(method, path, body, want)
	end := start.Add(rt)
	d.rec.record(0, 0, "http."+m.kind.String(), "server", start, end)
	d.mu.Lock()
	d.ph.attempted++
	d.mu.Unlock()
	if err != nil {
		d.ph.failures.add(m.kind.String()+" "+failReason(err), err)
		return 0, 0, false
	}
	var resp server.MutationResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		d.ph.failures.add("undecodable reply", err)
		return 0, 0, false
	}
	if m.kind == opAddExpert {
		if resp.ID == nil {
			d.ph.failures.add("add_expert reply without id", nil)
			return 0, 0, false
		}
		id = *resp.ID
	}
	d.mu.Lock()
	d.ph.writes = append(d.ph.writes, ms(end.Sub(from)))
	d.ph.lastEpoch = max(d.ph.lastEpoch, resp.Epoch)
	d.mu.Unlock()
	return resp.Epoch, id, true
}

func encode(r discoverReq) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // strings and ints always encode
	}
	return b
}

// runReadUnique: two closed-loop clients walk one list of distinct
// projects. Replies to the sampled list positions are kept for the
// in-process recomputation check.
func (d *loadgen) runReadUnique(list []discoverReq, seconds float64, sampled map[int]bool) map[int]keptReply {
	kept := make(map[int]keptReply)
	var keptMu sync.Mutex
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					d.ph.failures.add(exhausted, nil)
					return
				}
				resp := d.discoverOnce(list[i], encode(list[i]), 0, nil)
				if resp != nil && sampled[i] {
					keptMu.Lock()
					kept[i] = keptReply{list[i], resp}
					keptMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	d.ph.elapsed = time.Since(start)
	return kept
}

// exhausted is the failure a client records when it reaches the end of
// its list before the deadline: the run then measured less than it was
// asked to, so it is not valid. The lists are sized for a program
// several times faster than today's.
const exhausted = "list exhausted before the deadline"

// keptReply is a sampled request with the reply it got.
type keptReply struct {
	req  discoverReq
	resp *server.DiscoverResponse
}

// writeRate is the read-write workload's open-loop write rate.
const writeRate = 10 // writes per second

// genLateBound marks a run invalid: an open-loop send that was due
// while the connection was idle but left this much later means the
// load generator, not the program, fell behind.
const genLateBound = time.Second / writeRate

// runReadWrite: one open-loop writer at writeRate and one closed-loop
// reader drawing from a Zipf pool.
func (d *loadgen) runReadWrite(writes []mutation, pool []discoverReq, draws []int, seconds float64) {
	bodies := make([][]byte, len(pool))
	for i, r := range pool {
		bodies[i] = encode(r)
	}
	var lastAcked atomic.Uint64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		var added []expertgraph.NodeID
		prevDone := start
		sent := 0
		defer func() { d.ph.writerDone = []int{sent} }()
		for i := range writes {
			due := start.Add(time.Duration(i) * time.Second / writeRate)
			if !due.Before(deadline) {
				break
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			now := time.Now()
			d.ph.sendLate = append(d.ph.sendLate, ms(max(now.Sub(due), 0)))
			d.ph.genLate = append(d.ph.genLate, ms(max(now.Sub(later(due, prevDone)), 0)))
			m := &writes[i]
			if m.kind == opAddExpert {
				d.checker.addExpert(m.expert.name, m.expert.skills)
			}
			epoch, id, ok := d.writeOnce(m, added, due)
			prevDone = time.Now()
			sent = i + 1
			if m.kind == opAddExpert {
				if !ok {
					return // the list's later writes reference this expert
				}
				added = append(added, id)
			}
			if ok {
				lastAcked.Store(epoch) // one writer: acks arrive in epoch order
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		var prev uint64
		for j := 0; time.Now().Before(deadline); j++ {
			k := draws[j%len(draws)]
			d.discoverOnce(pool[k], bodies[k], lastAcked.Load(), &prev)
		}
	}()
	wg.Wait()
	d.ph.elapsed = time.Since(start)
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runIngest: closed-loop writers (ingestWriters of them) stream their
// disjoint lists while a watcher times each write until the follower
// reaches its epoch.
func (d *loadgen) runIngest(lists [][]mutation, seconds float64) {
	vis := &visibility{st: d.st}
	ctx, cancel := context.WithCancel(context.Background())
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		vis.watch(ctx)
	}()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	d.ph.writerDone = make([]int, len(lists))
	var wg sync.WaitGroup
	for w, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var added []expertgraph.NodeID
			for i := 0; time.Now().Before(deadline); i++ {
				if i == len(list) {
					d.ph.failures.add(exhausted, nil)
					return
				}
				m := &list[i]
				sent := time.Now()
				epoch, id, ok := d.writeOnce(m, added, sent)
				d.ph.writerDone[w] = i + 1
				if !ok {
					if m.kind == opAddExpert {
						return // the list's later writes reference this expert
					}
					continue
				}
				if m.kind == opAddExpert {
					added = append(added, id)
				}
				vis.track(epoch, sent)
			}
		}()
	}
	wg.Wait()
	d.ph.elapsed = time.Since(start)
	// Every acknowledged write must become visible on the follower.
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	if !d.st.fstore.WaitEpoch(wctx, d.ph.lastEpoch) {
		d.ph.failures.add("follower did not reach the last acked epoch within 30s", nil)
	}
	wcancel()
	vis.resolve()
	cancel()
	<-watchDone
	d.ph.visible = vis.samples()
	if n := vis.pendingCount(); n > 0 {
		d.ph.failures.add("writes never visible on the follower", fmt.Errorf("%d writes", n))
	}
}

// visibility times writes from their send until the follower's store
// reaches their acknowledged epoch.
type visibility struct {
	st      *stack
	mu      sync.Mutex
	pending []pendingWrite
	done    samples
}

type pendingWrite struct {
	epoch uint64
	sent  time.Time
}

// track registers an acknowledged write. The follower's epoch is read
// under the same lock the watcher resolves under, so a write is never
// missed between the two.
func (v *visibility) track(epoch uint64, sent time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.st.fstore.Epoch() >= epoch {
		v.done = append(v.done, ms(time.Since(sent)))
		return
	}
	v.pending = append(v.pending, pendingWrite{epoch, sent})
}

// watch resolves pending writes each time the follower's epoch moves.
func (v *visibility) watch(ctx context.Context) {
	for target := uint64(1); ; {
		if !v.st.fstore.WaitEpoch(ctx, target) {
			return
		}
		target = v.resolve() + 1
	}
}

func (v *visibility) resolve() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	epoch := v.st.fstore.Epoch()
	now := time.Now()
	keep := v.pending[:0]
	for _, p := range v.pending {
		if p.epoch <= epoch {
			v.done = append(v.done, ms(now.Sub(p.sent)))
		} else {
			keep = append(keep, p)
		}
	}
	v.pending = keep
	return epoch
}

func (v *visibility) pendingCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

func (v *visibility) samples() samples {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.done
}
