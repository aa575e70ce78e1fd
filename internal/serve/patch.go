package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"ugs"
)

// EditSpec is the wire form of one edge edit: op is "insert", "delete" or
// "reweight"; p carries the probability for insert and reweight and is
// ignored for delete.
type EditSpec struct {
	Op string  `json:"op"`
	U  int     `json:"u"`
	V  int     `json:"v"`
	P  float64 `json:"p,omitempty"`
}

// PatchRequest is the body of PATCH /v1/graphs/{name}/edges: one atomic edit
// batch. ExpectVersion, when non-zero, makes the patch conditional on the
// graph currently being at that version (optimistic concurrency — a lost
// race returns 409 conflict instead of silently patching newer state).
type PatchRequest struct {
	Edits         []EditSpec `json:"edits"`
	ExpectVersion int        `json:"expect_version,omitempty"`
	TimeoutMS     int64      `json:"timeout_ms,omitempty"`
}

// PatchResponse reports an applied patch: the graph's new version (the
// generation every cache key embeds; the server has purged every cached
// result of the previous one, sparsified results of it included) and its
// post-patch summary.
type PatchResponse struct {
	Graph   string    `json:"graph"`
	Version int       `json:"version"`
	Applied int       `json:"applied"`
	Info    GraphInfo `json:"info"`
}

// decodeEditSpecs maps wire edits to ugs.EdgeEdit, rejecting unknown op
// names; everything else (ranges, duplicates, probabilities) is validated
// atomically by ugs.ApplyEdits against the target graph.
func decodeEditSpecs(specs []EditSpec) ([]ugs.EdgeEdit, error) {
	if len(specs) == 0 {
		return nil, errors.New("empty edit batch")
	}
	edits := make([]ugs.EdgeEdit, len(specs))
	for i, sp := range specs {
		op, err := ugs.ParseEditOp(sp.Op)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		edits[i] = ugs.EdgeEdit{Op: op, U: sp.U, V: sp.V, P: sp.P}
	}
	return edits, nil
}

// handlePatchGraph applies a versioned edit batch to a stored graph.
func (s *Server) handlePatchGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	edits, err := decodeEditSpecs(req.Edits)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	info, gen, err := s.store.Patch(ctx, name, edits, req.ExpectVersion)
	if err != nil {
		s.writePatchErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PatchResponse{Graph: name, Version: gen, Applied: len(edits), Info: info})
}

// writePatchErr maps patch failures: a rejected batch is the caller's fault
// (400 bad_request with the offending edit), a lost race is 409 conflict,
// and acquire failures keep their typed codes.
func (s *Server) writePatchErr(w http.ResponseWriter, err error) {
	var ee *ugs.EditError
	switch {
	case errors.As(err, &ee):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
	case errors.Is(err, ErrPatchConflict):
		writeError(w, http.StatusConflict, CodeConflict, err.Error(), 0)
	default:
		s.writeAcquireErr(w, err)
	}
}

// Patch applies an edit batch through a Client. Not idempotent — a retry of
// a timed-out patch could apply the batch twice — so failures return
// immediately; callers wanting exactly-once semantics should send
// ExpectVersion and retry only on 409.
func (c *Client) Patch(ctx context.Context, graph string, req *PatchRequest) (*PatchResponse, error) {
	var resp PatchResponse
	if err := c.do(ctx, http.MethodPatch, "/v1/graphs/"+graph+"/edges", req, &resp, false); err != nil {
		return nil, err
	}
	return &resp, nil
}
