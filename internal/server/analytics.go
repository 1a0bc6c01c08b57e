package server

// The analytics & evaluation surface: GET /v1/graphs/{id}/metrics serves the
// content-addressed metric bundle of a stored graph straight from the
// analytics cache, and POST /v1/evaluate detaches a utility evaluation —
// one stored synthetic graph, or fresh samples from a fitted model, measured
// against an original graph — into a job of kind "evaluate". Both read DP
// outputs that already exist, so neither costs privacy budget; both are
// tenant-scoped like every other resource read.

import (
	"errors"
	"net/http"

	"agmdp/internal/analytics"
	"agmdp/internal/jobs"
	"agmdp/internal/tenant"
)

// handleGraphMetrics serves the canonical metric bundle of a stored graph.
// The bundle is a pure function of (graph ID, bundle version) — graph IDs are
// content hashes of immutable snapshots — so responses come verbatim from the
// analytics cache: the first request computes (single-flighted) and persists,
// every later request, including after a restart, serves the same bytes.
func (s *Server) handleGraphMetrics(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Same scoping as every graph read: another tenant's graph must be
	// indistinguishable from a missing one.
	if !s.canAccess(r, tenant.ResourceGraph, id) {
		writeError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	raw, _, err := s.analytics.Get(id)
	if errors.Is(err, analytics.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "computing metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, werr := w.Write(raw)
	abortOnStreamError("metric bundle", werr)
}

// evaluateRequest is the POST /v1/evaluate body. SourceGraphID names the
// original graph; exactly one of SyntheticGraphID (measure that stored graph)
// or ModelID (draw Count fresh samples from that model and measure each) must
// be set. The draw parameters apply to model mode only and follow the
// batch conventions of POST /v1/sample; the metric passes run on the
// process-default worker count.
type evaluateRequest struct {
	SourceGraphID    string `json:"source_graph_id"`
	SyntheticGraphID string `json:"synthetic_graph_id,omitempty"`
	ModelID          string `json:"model_id,omitempty"`
	drawParams
}

// handleEvaluate submits an evaluate job and answers 202 with its snapshot.
// Evaluation is free of ε charges — it post-processes graphs and models that
// already exist — but fully scoped: the caller must own the source graph and
// the synthetic graph or model it measures.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding evaluate request: %v", err)
		return
	}
	if req.SourceGraphID == "" {
		writeError(w, http.StatusBadRequest, "source_graph_id is required")
		return
	}
	if (req.SyntheticGraphID == "") == (req.ModelID == "") {
		writeError(w, http.StatusBadRequest, "exactly one of synthetic_graph_id or model_id must be set")
		return
	}
	spec := jobs.EvalSpec{SourceID: req.SourceGraphID}
	if req.ModelID != "" {
		d, ok := s.checkDraws(w, r, req.ModelID, req.drawParams)
		if !ok {
			return
		}
		spec.Draws = d
	} else if req.drawParams != (drawParams{}) {
		// Pair mode takes no sampling parameters; reject them instead of
		// silently ignoring them.
		writeError(w, http.StatusBadRequest, "count, seed, iterations, model and parallelism apply to model_id evaluation only")
		return
	}

	var ok bool
	if spec.Source, ok = s.storedGraph(w, r, req.SourceGraphID); !ok {
		return
	}
	if req.SyntheticGraphID != "" {
		if spec.Synthetic, ok = s.storedGraph(w, r, req.SyntheticGraphID); !ok {
			return
		}
		spec.SyntheticID = req.SyntheticGraphID
	}

	id, err := s.cfg.Jobs.SubmitEvaluate(spec)
	s.acceptJob(w, r, id, err)
}
