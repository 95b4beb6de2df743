package repl

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/obs"
)

// TermHeader carries a node's current term on fenced (412) replies so
// the rejected peer can tell "I am stale" from "the source is stale".
const TermHeader = "X-Authteam-Term"

// HTTPSource implements live.ReplicationSource against a leader's
// /v1/journal endpoints. It is safe for concurrent use, though the
// follower loop drives it from a single goroutine.
type HTTPSource struct {
	base string
	hc   *http.Client
	// termFn, when set, reports the follower's current term; tails then
	// claim it so a source on a newer lineage can fence the request
	// instead of feeding a stale reader.
	termFn func() uint64
	// tailHist and baseHist time leader round-trips (nil without
	// Instrument; obs methods are nil-safe no-ops). A tail observation
	// includes the server-side long-poll wait, so the histogram's upper
	// buckets reflect the poll bound, not network trouble.
	tailHist *obs.Histogram
	baseHist *obs.Histogram
}

// NewHTTPSource builds a source tailing the leader at baseURL (scheme
// and host, e.g. "http://leader:7070"). A nil client gets a dedicated
// http.Client with no overall timeout — tail requests are long-polls,
// bounded per call by the context the follower passes in.
func NewHTTPSource(baseURL string, hc *http.Client) *HTTPSource {
	if hc == nil {
		hc = &http.Client{}
	}
	return &HTTPSource{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// WithTerm sets the callback reporting the follower's current term and
// returns the source for chaining. Tails then send the claim with each
// request, letting the source fence a reader from a superseded lineage.
func (s *HTTPSource) WithTerm(fn func() uint64) *HTTPSource {
	s.termFn = fn
	return s
}

// Instrument registers the source's round-trip histograms on reg and
// returns the source for chaining.
func (s *HTTPSource) Instrument(reg *obs.Registry) *HTTPSource {
	if reg != nil {
		s.tailHist = reg.Histogram("authteam_replication_tail_roundtrip_seconds",
			"Leader tail long-poll round-trip duration (includes server-side wait).", nil)
		s.baseHist = reg.Histogram("authteam_replication_base_roundtrip_seconds",
			"Leader base snapshot fetch duration.", nil)
	}
	return s
}

// waitMargin is subtracted from the request context's deadline to set
// the server-side long-poll budget, leaving room for the response to
// travel back before the client context fires.
const waitMargin = 2 * time.Second

// Tail long-polls GET /v1/journal/tail. A torn response (leader died
// mid-write) is not an error here: the complete prefix is applied and
// the next poll resumes from wherever it ended. A 412 fence comes back
// as a *live.FencedError carrying the source's term.
func (s *HTTPSource) Tail(ctx context.Context, from uint64, max int) ([]live.Mutation, uint64, error) {
	resp, err := s.tailRequest(ctx, from, max)
	if err != nil {
		return nil, 0, err
	}
	defer drainClose(resp.Body)
	muts, hdr, rerr := ReadTail(resp.Body)
	if rerr != nil && len(muts) == 0 {
		return nil, 0, rerr
	}
	// A truncated tail with a parsed prefix: hand the prefix over; the
	// follower's next poll picks up at the tear.
	return muts, hdr.Epoch, nil
}

// TailGroups is Tail returning the response as one group. Nothing in
// this module calls it; it exists because the serving benchmark module
// (servebench) wraps it to satisfy live.GroupedSource.
func (s *HTTPSource) TailGroups(ctx context.Context, from uint64, max int) ([][]live.Mutation, uint64, error) {
	muts, epoch, err := s.Tail(ctx, from, max)
	if len(muts) == 0 {
		return nil, epoch, err
	}
	return [][]live.Mutation{muts}, epoch, err
}

// tailRequest builds, sends, and status-checks one tail long-poll,
// returning the 200 response with its body still open.
func (s *HTTPSource) tailRequest(ctx context.Context, from uint64, max int) (*http.Response, error) {
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	if s.termFn != nil {
		if term := s.termFn(); term > 0 {
			q.Set("term", strconv.FormatUint(term, 10))
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		wait := time.Until(dl) - waitMargin
		if wait < 0 {
			wait = 0
		}
		q.Set("wait_ms", strconv.FormatInt(wait.Milliseconds(), 10))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/journal/tail?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	if s.tailHist != nil {
		start := time.Now()
		defer func() { s.tailHist.Observe(time.Since(start).Seconds()) }()
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return resp, nil
	case http.StatusGone:
		drainClose(resp.Body)
		return nil, live.ErrCompactedEpoch
	case http.StatusConflict:
		drainClose(resp.Body)
		return nil, live.ErrFutureEpoch
	case http.StatusPreconditionFailed:
		err := s.tailFenceError(resp)
		drainClose(resp.Body)
		return nil, err
	default:
		err := httpStatusError("tail", resp)
		drainClose(resp.Body)
		return nil, err
	}
}

// fencedError turns a 412 reply into a *live.FencedError carrying the
// source's term from the TermHeader (0 if absent or malformed — still
// a fence, just an anonymous one).
func fencedError(resp *http.Response) error {
	term, _ := strconv.ParseUint(resp.Header.Get(TermHeader), 10, 64)
	return &live.FencedError{Term: term}
}

// tailFenceError disambiguates a tail 412 by comparing the source's
// term against our own claim: a source on a term BEYOND ours has
// genuinely fenced us (the follower loop demotes the store and stops),
// while a source at or below our term is itself the stale party — that
// is a transient condition (retry; the source will demote or catch
// up), emphatically not a reason to fence ourselves.
func (s *HTTPSource) tailFenceError(resp *http.Response) error {
	term, _ := strconv.ParseUint(resp.Header.Get(TermHeader), 10, 64)
	if s.termFn != nil {
		if own := s.termFn(); term <= own {
			return fmt.Errorf("repl: tail: source is on term %d, not beyond our term %d; it is the stale party", term, own)
		}
	}
	return &live.FencedError{Term: term}
}

// Base fetches GET /v1/journal/base: the leader's fold snapshot,
// decoded straight off the wire along with its epoch and the source's
// current term.
func (s *HTTPSource) Base(ctx context.Context) (*expertgraph.Graph, uint64, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/journal/base", nil)
	if err != nil {
		return nil, 0, 0, err
	}
	if s.baseHist != nil {
		start := time.Now()
		defer func() { s.baseHist.Observe(time.Since(start).Seconds()) }()
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, httpStatusError("base", resp)
	}
	return live.ReadBaseStream(resp.Body)
}

func httpStatusError(what string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		return fmt.Errorf("repl: %s: leader returned %s", what, resp.Status)
	}
	return fmt.Errorf("repl: %s: leader returned %s: %s", what, resp.Status, msg)
}

// drainClose consumes a little of the remaining body before closing so
// keep-alive connections stay reusable after short error replies.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4<<10))
	body.Close()
}
