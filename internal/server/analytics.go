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
	"agmdp/internal/structural"
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
// be set. Seed, Iterations, Model and Count apply to model mode only and
// follow the sample-job conventions (sample i runs with seed Seed+i; 0 means
// unseeded). Parallelism, also model mode only, is each sample's stream
// count; the metric passes run on the process-default worker count.
type evaluateRequest struct {
	SourceGraphID    string `json:"source_graph_id"`
	SyntheticGraphID string `json:"synthetic_graph_id,omitempty"`
	ModelID          string `json:"model_id,omitempty"`
	Count            int    `json:"count,omitempty"`
	Seed             int64  `json:"seed,omitempty"`
	Iterations       int    `json:"iterations,omitempty"`
	Model            string `json:"model,omitempty"`
	Parallelism      int    `json:"parallelism,omitempty"`
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
	if req.Parallelism < 0 {
		writeError(w, http.StatusBadRequest, "negative parallelism %d", req.Parallelism)
		return
	}

	if !s.canAccess(r, tenant.ResourceGraph, req.SourceGraphID) {
		writeError(w, http.StatusNotFound, "no graph %q", req.SourceGraphID)
		return
	}
	source, ok := s.cfg.Graphs.Get(req.SourceGraphID)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", req.SourceGraphID)
		return
	}

	spec := jobs.EvalSpec{
		Source:   source,
		SourceID: req.SourceGraphID,
	}
	if req.SyntheticGraphID != "" {
		// Pair mode takes no sampling parameters; reject them instead of
		// silently ignoring, like the job-kind validation does.
		if req.Count != 0 || req.Seed != 0 || req.Iterations != 0 || req.Model != "" || req.Parallelism != 0 {
			writeError(w, http.StatusBadRequest, "count, seed, iterations, model and parallelism apply to model_id evaluation only")
			return
		}
		if !s.canAccess(r, tenant.ResourceGraph, req.SyntheticGraphID) {
			writeError(w, http.StatusNotFound, "no graph %q", req.SyntheticGraphID)
			return
		}
		synthetic, ok := s.cfg.Graphs.Get(req.SyntheticGraphID)
		if !ok {
			writeError(w, http.StatusNotFound, "no graph %q", req.SyntheticGraphID)
			return
		}
		spec.Synthetic = synthetic
		spec.SyntheticID = req.SyntheticGraphID
	} else {
		count := req.Count
		if count == 0 {
			count = 1
		}
		if count < 1 || count > s.cfg.MaxJobSamples {
			writeError(w, http.StatusBadRequest, "count %d outside [1, %d]", count, s.cfg.MaxJobSamples)
			return
		}
		if req.Seed < 0 && req.Seed+int64(count) > 0 {
			writeError(w, http.StatusBadRequest,
				"seed range [%d, %d] crosses 0 (sample i runs with seed seed+i; 0 means unseeded)",
				req.Seed, req.Seed+int64(count)-1)
			return
		}
		if req.Model != "" {
			if _, err := structural.ByName(req.Model, 0); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if !s.canAccess(r, tenant.ResourceModel, req.ModelID) {
			writeError(w, http.StatusNotFound, "no model %q", req.ModelID)
			return
		}
		m, ok := s.cfg.Registry.Model(req.ModelID)
		if !ok {
			writeError(w, http.StatusNotFound, "no model %q", req.ModelID)
			return
		}
		spec.Model = m
		spec.ModelID = req.ModelID
		spec.Count = count
		spec.Seed = req.Seed
		spec.Iterations = req.Iterations
		spec.ModelKind = req.Model
		spec.Parallelism = req.Parallelism
	}

	id, err := s.cfg.Jobs.SubmitEvaluate(spec)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "submitting evaluate job: %v", err)
		return
	}
	s.grantFor(r, tenant.ResourceJob, id)
	info, _, _ := s.cfg.Jobs.Get(id)
	writeJSON(w, http.StatusAccepted, jobResponse{Info: info})
}
