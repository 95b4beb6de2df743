package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"authteam/internal/live"
	"authteam/internal/repl"
)

// The journal-as-replication-log endpoints. Every node serves them —
// leaders feed followers, and a follower can relay the same stream to
// followers of its own (fan-out trees) — because they only read the
// store's journal window and base snapshot, never its write path.
//
//	GET /v1/journal/tail?from=E&max=N&wait_ms=T   records after epoch E
//	GET /v1/journal/base                          the fold snapshot
//
// A tail request whose `from` has been compacted away answers 410 Gone
// — the follower must fetch the base and re-anchor. A `from` ahead of
// this node's epoch answers 409 — the follower is talking to a node
// behind itself (a stale relay, or a leader restored from an old
// backup) and must not apply anything from it.
//
// Term fencing (412 + X-Authteam-Term): a requester claiming a term
// below ours AND asking from past our term boundary carries records of
// a superseded lineage — serving it would splice divergent histories,
// so it is fenced and told the current term (its follower loop demotes
// its store). A requester claiming a term above ours proves that WE
// are superseded: a leader self-demotes on the spot (split-brain
// ends at the first post-partition request), and either way the reply
// is a 412 carrying our own, lower term — which the requester reads as
// "source is stale", not as a fence on itself.
//
// The response is the flat stream (a header line, then one record per
// line), and the follower commits it as one group. A follower that
// still asks for `groups=1` gets the same stream, which its grouped
// decoder reads as one group per record.

// maxTailBatch caps the records of one tail response regardless of the
// requested max, bounding the response a slow reader pins in memory.
const maxTailBatch = 65536

// maxTailWait caps the server-side long-poll, whatever the client
// asks for.
const maxTailWait = 60 * time.Second

func (s *Server) handleJournalTail(w http.ResponseWriter, r *http.Request) {
	s.tailRequests.Add(1)
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, "bad from epoch %q", q.Get("from")))
		return
	}
	max := 4096
	if v := q.Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil || max < 1 {
			writeError(w, errf(http.StatusBadRequest, "bad max %q", v))
			return
		}
	}
	if max > maxTailBatch {
		max = maxTailBatch
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, errf(http.StatusBadRequest, "bad wait_ms %q", v))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > maxTailWait {
		wait = maxTailWait
	}

	curTerm := s.store.Term()
	if reqTerm := requestTerm(r); reqTerm != 0 {
		switch {
		case reqTerm > curTerm:
			// The requester is on a newer lineage: this node is the
			// stale one. A leader learns it was superseded right here —
			// before it can feed anyone its dead-end records.
			if s.role.Load() == roleLeader {
				s.demoteSelf(reqTerm)
			}
			writeError(w, fencedErrf(curTerm,
				"this node is on term %d, behind your term %d; it cannot serve your tail", curTerm, reqTerm))
			return
		case reqTerm < curTerm && from > s.store.TermStart():
			// The requester's post-boundary history belongs to a
			// superseded lineage; a tail from there would splice
			// histories. (From at or below the boundary is shared
			// prefix: serving it lets a lagging old-term follower adopt
			// the new term organically from the records.)
			s.fencedRequests.Add(1)
			writeError(w, fencedErrf(curTerm,
				"term %d was superseded by term %d at epoch %d; adopt the new lineage",
				reqTerm, curTerm, s.store.TermStart()))
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()

	muts, epoch, terr := s.store.TailSince(ctx, from, max)
	switch {
	case terr == nil:
	case errors.Is(terr, live.ErrFenced):
		// A demoted store refuses to serve its superseded lineage.
		s.fencedRequests.Add(1)
		writeError(w, fencedErrf(s.store.Term(),
			"this node was fenced by term %d and no longer serves the journal", s.store.Term()))
		return
	case errors.Is(terr, live.ErrCompactedEpoch):
		s.tailCompacted.Add(1)
		writeError(w, errf(http.StatusGone,
			"epoch %d is below the retained journal window; fetch /v1/journal/base", from))
		return
	case errors.Is(terr, live.ErrFutureEpoch):
		writeError(w, errf(http.StatusConflict,
			"epoch %d is ahead of this node (at %d)", from, s.store.Epoch()))
		return
	default:
		writeError(w, errf(http.StatusInternalServerError, "%v", terr))
		return
	}
	// Re-check the fence after the long-poll: this node may have adopted
	// a newer term while the tail waited (organically, from a replicated
	// record), in which case a stale requester asking from past the new
	// boundary must be fenced now — serving the poll's records would
	// splice histories exactly as the pre-poll check prevents. The term
	// is re-read for the response header for the same reason.
	curTerm = s.store.Term()
	if reqTerm := requestTerm(r); reqTerm != 0 && reqTerm < curTerm && from > s.store.TermStart() {
		s.fencedRequests.Add(1)
		writeError(w, fencedErrf(curTerm,
			"term %d was superseded by term %d at epoch %d; adopt the new lineage",
			reqTerm, curTerm, s.store.TermStart()))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Past this point the stream is committed; a write failure tears
	// the tail mid-record, which the follower-side codec treats as a
	// disconnect (apply the prefix, re-poll), not corruption.
	_ = repl.WriteTail(w, from, epoch, curTerm, muts)
}

func (s *Server) handleJournalBase(w http.ResponseWriter, r *http.Request) {
	s.baseRequests.Add(1)
	// syncRole folds the store fence into the role: a relay follower
	// whose replication loop fenced itself (and exited without touching
	// the server role) must refuse here too, or it would seed downstream
	// followers with its divergent suffix — stamped, after Demote raised
	// the term, as if it were the winning lineage. WriteBaseTo below
	// enforces the same fence at the store layer as a backstop.
	if s.syncRole() == roleDemoted {
		// A fenced node must not seed followers with superseded state.
		s.fencedRequests.Add(1)
		writeError(w, fencedErrf(s.store.Term(),
			"this node was fenced by term %d and no longer serves base snapshots", s.store.Term()))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Informational only (the stream itself carries the authoritative
	// epoch); a fold racing this handler can make it lag by one.
	w.Header().Set("X-Authteam-Base-Epoch", strconv.FormatUint(s.store.Snapshot().BaseEpoch(), 10))
	if _, err := s.store.WriteBaseTo(w); err != nil {
		// Headers are gone; all we can do is abort the stream so the
		// client sees a tear instead of a truncated-but-200 body.
		panic(http.ErrAbortHandler)
	}
}

// redirectToLeader answers every mutation attempt on a follower: 307
// preserves the method and body, so a client that follows redirects
// lands the same mutation on the leader unchanged.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request) {
	leader := s.currentLeaderURL()
	herr := errf(http.StatusTemporaryRedirect,
		"this node is a read replica; mutations go to the leader at %s", leader)
	herr.location = leader + r.URL.RequestURI()
	writeError(w, herr)
}

// minEpochHeader is the read-your-writes contract: a client echoes the
// epoch of its last mutation response here, and the serving node
// guarantees the read observes at least that epoch (or refuses).
const minEpochHeader = "X-Authteam-Min-Epoch"

// ensureMinEpoch enforces the header on a read. It returns a non-nil
// error when the request must not be served locally: after waiting up
// to MinEpochWait for replication to catch up, a still-behind follower
// redirects the read to the leader and a still-behind leader (client
// knows a future epoch this leader never produced — a restore from an
// old backup, or the wrong endpoint) answers 409.
func (s *Server) ensureMinEpoch(r *http.Request) *httpError {
	v := r.Header.Get(minEpochHeader)
	if v == "" {
		return nil
	}
	min, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return errf(http.StatusBadRequest, "bad %s %q", minEpochHeader, v)
	}
	if s.store.Epoch() >= min {
		return nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MinEpochWait)
	defer cancel()
	if s.store.WaitEpoch(ctx, min) {
		return nil
	}
	if leader := s.currentLeaderURL(); s.syncRole() == roleFollower && leader != "" {
		herr := errf(http.StatusTemporaryRedirect,
			"replica is at epoch %d, read requires %d; retry at the leader %s",
			s.store.Epoch(), min, leader)
		herr.location = leader + r.URL.RequestURI()
		return herr
	}
	return errf(http.StatusConflict,
		"this node is at epoch %d and will not reach %d; was the write acknowledged elsewhere?",
		s.store.Epoch(), min)
}

// ReplicationStats is the replication section of the /stats payload.
type ReplicationStats struct {
	// Role is "leader", "follower", "promoting" or "demoted" — the live
	// cluster role, not the boot-time configuration.
	Role string `json:"role"`
	// Term and TermStart are the store's fencing token and the epoch
	// its lineage began at.
	Term      uint64 `json:"term"`
	TermStart uint64 `json:"term_start"`
	// Leader is the followed base URL (follower only).
	Leader string `json:"leader,omitempty"`
	// Follower reports the apply loop (follower only).
	Follower *live.FollowerStats `json:"follower,omitempty"`
	// Serving counters for this node's own replication log.
	TailRequests  uint64 `json:"tail_requests"`
	TailCompacted uint64 `json:"tail_compacted"`
	BaseRequests  uint64 `json:"base_requests"`
	// Cluster-role transitions and fences witnessed by this node.
	Promotions     uint64 `json:"promotions"`
	FencedRequests uint64 `json:"fenced_requests"`
}

func (s *Server) replicationStats() ReplicationStats {
	role := s.syncRole()
	rs := ReplicationStats{
		Role:           roleName(role),
		Term:           s.store.Term(),
		TermStart:      s.store.TermStart(),
		TailRequests:   s.tailRequests.Load(),
		TailCompacted:  s.tailCompacted.Load(),
		BaseRequests:   s.baseRequests.Load(),
		Promotions:     s.promotions.Load(),
		FencedRequests: s.fencedRequests.Load(),
	}
	if role == roleFollower {
		rs.Leader = s.currentLeaderURL()
		fs, _ := s.node.FollowerStats()
		rs.Follower = &fs
	}
	return rs
}
