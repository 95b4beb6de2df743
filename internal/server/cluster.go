package server

import (
	"net/http"
	"strconv"

	"authteam/internal/repl"
)

// Cluster roles. A server is born leader (no FollowURL) or follower
// (FollowURL set) and can change role while serving:
//
//	          POST /v1/cluster/promote
//	follower ─────────────────────────► promoting ──► leader
//	                                        │(promote failed)
//	                                        ▼
//	leader ───────────────────────────► demoted
//	          (fenced by a newer term)
//
// The states are ordinary int32 codes behind one atomic so every
// request path — mutation dispatch, journal serving, /readyz, /stats,
// metrics — reads the role lock-free and follows it live. Promotion is
// the only multi-step transition (drain → seal → persist term → flip)
// and is serialized by promoteMu; demotion is a single fail-closed
// store + atomic flip that may interrupt a leader mid-stream.
const (
	roleLeader int32 = iota
	roleFollower
	rolePromoting
	roleDemoted
)

func roleName(code int32) string {
	switch code {
	case roleLeader:
		return "leader"
	case roleFollower:
		return "follower"
	case rolePromoting:
		return "promoting"
	default:
		return "demoted"
	}
}

// Role reports the server's current cluster role.
func (s *Server) Role() string { return roleName(s.syncRole()) }

// syncRole reconciles the role atomic with the store's fence and
// returns the current role. The store can be demoted out-of-band —
// most importantly by the follower loop, which fences the store and
// exits when its source proves a newer lineage, without ever touching
// the server — so every role-sensitive path reads the role through
// here: a fenced store IS a demoted node, whatever the atomic last
// said. Without this, a loop-fenced follower would keep role=follower
// forever and, crucially, keep serving /v1/journal/base — seeding
// downstream followers with its divergent suffix stamped under the
// new term, the exact splice fencing exists to prevent.
func (s *Server) syncRole() int32 {
	role := s.role.Load()
	if role == roleDemoted || !s.store.Fenced() {
		return role
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.role.Load() != roleDemoted && s.store.Fenced() {
		s.role.Store(roleDemoted)
	}
	return roleDemoted
}

// currentLeaderURL is the upstream this node redirects mutations to
// while it is a follower ("" once promoted, or on a born leader).
func (s *Server) currentLeaderURL() string {
	if v, ok := s.leaderURL.Load().(string); ok {
		return v
	}
	return ""
}

// handleClusterRole answers GET /v1/cluster/role: the role, term and
// epoch a client needs to find (or re-find) the writer.
func (s *Server) handleClusterRole(w http.ResponseWriter, r *http.Request) {
	role := s.syncRole()
	ri := repl.RoleInfo{
		Role:  roleName(role),
		Term:  s.store.Term(),
		Epoch: s.store.Epoch(),
	}
	if role == roleFollower {
		ri.Leader = s.currentLeaderURL()
	}
	writeJSON(w, http.StatusOK, ri)
}

// PromoteRequest is the body of POST /v1/cluster/promote. Term is
// optional: 0 means "one past my current term", which is correct for
// the common single-failover case; an orchestrator that has seen more
// history can pin a higher term explicitly.
type PromoteRequest struct {
	Term uint64 `json:"term,omitempty"`
}

// PromoteResponse reports a completed promotion: the new term and the
// epoch the follower lineage was sealed at (every epoch ≤ SealedEpoch
// is shared history; everything after is this node's own lineage).
type PromoteResponse struct {
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	SealedEpoch uint64 `json:"sealed_epoch"`
}

// handleClusterPromote turns a follower into the leader: stop the
// replication loop (draining its in-flight apply), seal the last
// applied epoch, persist the bumped term, then flip the role so the
// mutation routes start applying locally and the journal endpoints
// serve the new lineage. Promoting an already-promoted node is
// idempotent (200 with the current term); promoting a leader-born or
// demoted node is a 409.
func (s *Server) handleClusterPromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if r.ContentLength != 0 {
		if herr := decodeBody(w, r, &req); herr != nil {
			writeError(w, herr)
			return
		}
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	// Read the role through the fence: a follower whose replication loop
	// was fenced (the loop demotes the store and exits without touching
	// the server) is a demoted node and must not be promotable — its
	// suffix diverged from the lineage that deposed it.
	role := s.role.Load()
	if role != roleDemoted && s.store.Fenced() {
		s.role.Store(roleDemoted)
		role = roleDemoted
	}
	switch role {
	case roleLeader:
		// Already the writer. If this node was promoted earlier the
		// repeat is a retry of a timed-out call; answer what it would
		// have answered.
		writeJSON(w, http.StatusOK, PromoteResponse{
			Role: "leader", Term: s.store.Term(), SealedEpoch: s.store.Epoch(),
		})
		return
	case roleDemoted:
		term := s.store.Term()
		herr := errf(http.StatusConflict, "this node was fenced by term %d; it cannot be promoted", term)
		herr.term = &term
		writeError(w, herr)
		return
	}
	// Reject an unusable explicit term before any side effect: a bad
	// request must not cost the node its follower role (the failure path
	// below demotes, durably).
	if req.Term != 0 {
		if cur := s.store.Term(); req.Term <= cur {
			writeError(w, errf(http.StatusConflict,
				"requested term %d is not beyond the current term %d", req.Term, cur))
			return
		}
	}
	s.role.Store(rolePromoting)
	// Drain: the follower loop finishes (or abandons) its current apply
	// and stops; every epoch it committed is part of the shared prefix
	// we seal below.
	s.node.StopFollower()
	sealed, err := s.store.Promote(req.Term)
	if err != nil {
		// The follower loop is already stopped and the store may be in
		// an unknown term state: fail closed into demoted — and persist
		// it (store.Demote writes the fence into the journal header), so
		// a restart boots the node back demoted instead of as a healthy
		// follower or leader the operator was told needs attention.
		_ = s.store.Demote(0) // fences in memory even when persisting fails
		s.role.Store(roleDemoted)
		writeError(w, errf(http.StatusInternalServerError, "promote: %v", err))
		return
	}
	s.leaderURL.Store("")
	s.role.Store(roleLeader)
	s.promotions.Add(1)
	writeJSON(w, http.StatusOK, PromoteResponse{
		Role: "leader", Term: s.store.Term(), SealedEpoch: sealed,
	})
}

// demoteSelf fences this node out of the leader role: a request proved
// a newer term exists, so the store is demoted (fail-closed: in-memory
// fence first, then persisted) and the role flips to demoted. Queued
// and future local writes fail with live.ErrFenced; the journal
// endpoints stop serving this superseded lineage.
func (s *Server) demoteSelf(term uint64) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.role.Load() != roleLeader {
		return
	}
	_ = s.store.Demote(term) // Demote fences in memory even when persisting fails
	s.role.Store(roleDemoted)
	s.fencedRequests.Add(1)
}

// requestTerm extracts a peer's term claim from a request: the `term`
// query parameter (tail requests) or the X-Authteam-Term header
// (forwarded mutations). 0 — absent, unparsable, or a peer predating
// cluster roles — claims nothing and is never fenced.
func requestTerm(r *http.Request) uint64 {
	v := r.URL.Query().Get("term")
	if v == "" {
		v = r.Header.Get(repl.TermHeader)
	}
	if v == "" {
		return 0
	}
	t, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return t
}

// fencedErrf builds the 412 reply that tells a peer which term
// rejected it.
func fencedErrf(term uint64, format string, args ...any) *httpError {
	herr := errf(http.StatusPreconditionFailed, format, args...)
	herr.term = &term
	return herr
}

// dispatchMutation wires one mutation route through the role state
// machine: a leader applies locally (after checking the requester's
// term claim — a claim above our own proves we were superseded and
// self-demotes this node before it can split-brain), a follower
// answers a 307 to its leader, a promoting node asks for a retry, and
// a demoted node answers the fence.
func (s *Server) dispatchMutation(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch s.syncRole() {
		case roleLeader:
			if reqTerm := requestTerm(r); reqTerm > s.store.Term() {
				old := s.store.Term()
				s.demoteSelf(reqTerm)
				writeError(w, fencedErrf(s.store.Term(),
					"this node led term %d and was superseded by term %d; re-resolve the leader", old, reqTerm))
				return
			}
			h(w, r)
		case roleFollower:
			s.redirectToLeader(w, r)
		case rolePromoting:
			w.Header().Set("Retry-After", "1")
			writeError(w, errf(http.StatusServiceUnavailable, "promotion in progress; retry shortly"))
		default: // demoted
			s.fencedRequests.Add(1)
			writeError(w, fencedErrf(s.store.Term(),
				"this node was fenced by term %d; re-resolve the leader", s.store.Term()))
		}
	}
}
