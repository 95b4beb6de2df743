package server

import (
	"errors"
	"net/http"
	"strconv"

	"authteam/internal/expertgraph"
	"authteam/internal/live"
)

// The /v1/graph mutation API. Each call applies exactly one mutation
// through the live store: it is journaled (write-ahead), validated,
// and published as a new epoch before the response is written, so the
// returned epoch gives read-your-writes — any request issued after the
// response resolves a snapshot at least that new. Discover requests
// keep snapshot isolation: a mutation never changes an in-flight
// query's view, it orphans the old epoch's cache entries instead.

// AddNodeRequest is the body of POST /v1/graph/nodes.
type AddNodeRequest struct {
	Name      string   `json:"name"`
	Authority float64  `json:"authority"`
	Skills    []string `json:"skills,omitempty"`
}

// AddEdgeRequest is the body of POST /v1/graph/edges.
type AddEdgeRequest struct {
	U expertgraph.NodeID `json:"u"`
	V expertgraph.NodeID `json:"v"`
	W float64            `json:"w"`
}

// UpdateNodeRequest is the body of PATCH /v1/graph/nodes/{id}. Nil
// Authority leaves the authority unchanged.
type UpdateNodeRequest struct {
	Authority *float64 `json:"authority,omitempty"`
	AddSkills []string `json:"add_skills,omitempty"`
}

// RemoveEdgeRequest is the body of DELETE /v1/graph/edges.
type RemoveEdgeRequest struct {
	U expertgraph.NodeID `json:"u"`
	V expertgraph.NodeID `json:"v"`
}

// UpdateEdgeRequest is the body of PATCH /v1/graph/edges: the new
// communication cost of an existing collaboration.
type UpdateEdgeRequest struct {
	U expertgraph.NodeID `json:"u"`
	V expertgraph.NodeID `json:"v"`
	W float64            `json:"w"`
}

// MutationResponse is the reply to every successful mutation.
type MutationResponse struct {
	// Epoch is the graph epoch at which the mutation became visible.
	Epoch uint64 `json:"epoch"`
	// ID is the assigned NodeID (node additions only).
	ID *expertgraph.NodeID `json:"id,omitempty"`
	// Nodes and Edges are the post-mutation graph counts.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

func (s *Server) handleAddNode(w http.ResponseWriter, r *http.Request) {
	var req AddNodeRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		s.metrics.recordMutation(string(live.OpAddNode), true)
		writeError(w, herr)
		return
	}
	id, epoch, err := s.store.AddExpert(req.Name, req.Authority, req.Skills)
	if err != nil {
		s.metrics.recordMutation(string(live.OpAddNode), true)
		writeError(w, mutationError(err))
		return
	}
	s.cache.EvictBefore(epoch)
	s.metrics.recordMutation(string(live.OpAddNode), false)
	writeJSON(w, http.StatusCreated, s.mutationResponse(epoch, &id))
}

func (s *Server) handleAddEdge(w http.ResponseWriter, r *http.Request) {
	var req AddEdgeRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		s.metrics.recordMutation(string(live.OpAddEdge), true)
		writeError(w, herr)
		return
	}
	epoch, err := s.store.AddCollaboration(req.U, req.V, req.W)
	if err != nil {
		s.metrics.recordMutation(string(live.OpAddEdge), true)
		writeError(w, mutationError(err))
		return
	}
	s.cache.EvictBefore(epoch)
	s.metrics.recordMutation(string(live.OpAddEdge), false)
	writeJSON(w, http.StatusCreated, s.mutationResponse(epoch, nil))
}

func (s *Server) handleUpdateNode(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		s.metrics.recordMutation(string(live.OpUpdateNode), true)
		writeError(w, errf(http.StatusBadRequest, "bad node id %q", r.PathValue("id")))
		return
	}
	var req UpdateNodeRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		s.metrics.recordMutation(string(live.OpUpdateNode), true)
		writeError(w, herr)
		return
	}
	epoch, err := s.store.UpdateExpert(expertgraph.NodeID(id64), req.Authority, req.AddSkills)
	if err != nil {
		s.metrics.recordMutation(string(live.OpUpdateNode), true)
		writeError(w, mutationError(err))
		return
	}
	s.cache.EvictBefore(epoch)
	s.metrics.recordMutation(string(live.OpUpdateNode), false)
	writeJSON(w, http.StatusOK, s.mutationResponse(epoch, nil))
}

func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) {
	var req RemoveEdgeRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		s.metrics.recordMutation(string(live.OpRemoveEdge), true)
		writeError(w, herr)
		return
	}
	epoch, err := s.store.RemoveCollaboration(req.U, req.V)
	if err != nil {
		s.metrics.recordMutation(string(live.OpRemoveEdge), true)
		writeError(w, mutationError(err))
		return
	}
	s.cache.EvictBefore(epoch)
	s.metrics.recordMutation(string(live.OpRemoveEdge), false)
	writeJSON(w, http.StatusOK, s.mutationResponse(epoch, nil))
}

func (s *Server) handleRemoveNode(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		s.metrics.recordMutation(string(live.OpRemoveNode), true)
		writeError(w, errf(http.StatusBadRequest, "bad node id %q", r.PathValue("id")))
		return
	}
	epoch, serr := s.store.RemoveExpert(expertgraph.NodeID(id64))
	if serr != nil {
		s.metrics.recordMutation(string(live.OpRemoveNode), true)
		writeError(w, mutationError(serr))
		return
	}
	s.cache.EvictBefore(epoch)
	s.metrics.recordMutation(string(live.OpRemoveNode), false)
	writeJSON(w, http.StatusOK, s.mutationResponse(epoch, nil))
}

func (s *Server) handleUpdateEdge(w http.ResponseWriter, r *http.Request) {
	var req UpdateEdgeRequest
	if herr := decodeBody(w, r, &req); herr != nil {
		s.metrics.recordMutation(string(live.OpUpdateEdge), true)
		writeError(w, herr)
		return
	}
	epoch, err := s.store.UpdateCollaboration(req.U, req.V, req.W)
	if err != nil {
		s.metrics.recordMutation(string(live.OpUpdateEdge), true)
		writeError(w, mutationError(err))
		return
	}
	s.cache.EvictBefore(epoch)
	s.metrics.recordMutation(string(live.OpUpdateEdge), false)
	writeJSON(w, http.StatusOK, s.mutationResponse(epoch, nil))
}

func (s *Server) mutationResponse(epoch uint64, id *expertgraph.NodeID) MutationResponse {
	snap := s.store.Snapshot()
	return MutationResponse{Epoch: epoch, ID: id, Nodes: snap.NumNodes(), Edges: snap.NumEdges()}
}

// mutationError maps live-store errors to HTTP statuses: unknown
// nodes and edges are 404, a tombstoned node is 410 Gone (it existed,
// and its ID will never come back), an already-existing edge is a 409
// conflict, a fenced store (demoted between dispatch and apply) is a
// 412 carrying the fencing term, the remaining validation failures are
// 400, and anything else (journal I/O) is a server fault.
func mutationError(err error) *httpError {
	switch {
	case errors.Is(err, live.ErrFenced):
		herr := errf(http.StatusPreconditionFailed, "%v", err)
		var fe *live.FencedError
		if errors.As(err, &fe) {
			herr.term = &fe.Term
		}
		return herr
	case errors.Is(err, live.ErrUnknownNode),
		errors.Is(err, live.ErrUnknownEdge):
		return errf(http.StatusNotFound, "%v", err)
	case errors.Is(err, live.ErrRemovedNode):
		return errf(http.StatusGone, "%v", err)
	case errors.Is(err, live.ErrDuplicateEdge):
		return errf(http.StatusConflict, "%v", err)
	case errors.Is(err, live.ErrSelfLoop),
		errors.Is(err, live.ErrNegativeW),
		errors.Is(err, live.ErrEmptyUpdate),
		errors.Is(err, live.ErrEmptyName):
		return errf(http.StatusBadRequest, "%v", err)
	default:
		return errf(http.StatusInternalServerError, "%v", err)
	}
}
