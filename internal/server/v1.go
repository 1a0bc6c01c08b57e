package server

// The graph store collection (/v1/graphs) and the asynchronous jobs
// (/v1/jobs), which POST /v1/fit, POST /v1/sample and POST /v1/evaluate
// submit. The fit and sample actions and the model collection live in
// server.go.

import (
	"fmt"
	"mime"
	"net/http"

	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/tenant"
)

// graphResponse is the body of graph-creating endpoints.
type graphResponse struct {
	ID   string          `json:"id"`
	Info graphstore.Info `json:"info"`
}

// listGraphsResponse is the GET /v1/graphs body.
type listGraphsResponse struct {
	Graphs []graphstore.Info `json:"graphs"`
}

// handleCreateGraph uploads a graph into the store. The wire format is
// negotiated from the Content-Type: application/json carries the inline
// graphPayload, text/plain the agmdp text format, and
// application/octet-stream (or application/x-agmdp-csr) the binary CSR
// snapshot. All formats are validated and re-encoded canonically, so the
// returned ID depends only on the graph, not on how it was uploaded.
func (s *Server) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	mediaType := "application/json"
	if ct := r.Header.Get("Content-Type"); ct != "" {
		var err error
		mediaType, _, err = mime.ParseMediaType(ct)
		if err != nil {
			writeError(w, http.StatusUnsupportedMediaType, "unparseable Content-Type %q", ct)
			return
		}
	}

	var g *graph.Graph
	switch mediaType {
	case "application/json":
		var p graphPayload
		if err := s.decodeBody(w, r, &p); err != nil {
			writeError(w, http.StatusBadRequest, "decoding graph payload: %v", err)
			return
		}
		if p.N > s.cfg.MaxFitNodes {
			writeError(w, http.StatusBadRequest, "graph has %d nodes, limit is %d", p.N, s.cfg.MaxFitNodes)
			return
		}
		var err error
		g, err = p.toGraph()
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid graph: %v", err)
			return
		}
	case "text/plain":
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var err error
		g, err = graph.ReadGraph(body, s.cfg.MaxFitNodes)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing graph text: %v", err)
			return
		}
	case "application/octet-stream", "application/x-agmdp-csr":
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var err error
		g, err = graph.ReadBinary(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "parsing binary snapshot: %v", err)
			return
		}
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (want application/json, text/plain or application/octet-stream)", mediaType)
		return
	}
	if err := s.checkGraphLimits(g); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	id, err := s.cfg.Graphs.Put(g)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "storing graph: %v", err)
		return
	}
	s.grantFor(r, tenant.ResourceGraph, id)
	info, _ := s.cfg.Graphs.Stat(id)
	writeJSON(w, http.StatusCreated, graphResponse{ID: id, Info: info})
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	graphs := s.cfg.Graphs.List()
	if s.cfg.Tenants != nil {
		scoped := graphs[:0]
		for _, info := range graphs {
			if s.canAccess(r, tenant.ResourceGraph, info.ID) {
				scoped = append(scoped, info)
			}
		}
		graphs = scoped
	}
	writeJSON(w, http.StatusOK, listGraphsResponse{Graphs: graphs})
}

// handleGetGraph stats a stored graph, or downloads it when ?format= names a
// wire format: "json" inlines the graphPayload, "text" streams the agmdp
// text form, "binary" the canonical CSR snapshot. The stat and binary paths
// never materialize the decoded graph — metadata comes from the store's
// header index and the snapshot streams straight from its bytes (memory map
// or file reads) with zero CSR decode — so downloading an idle graph keeps
// its residency at O(header).
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Stored graphs are the sensitive inputs the DP fit protects: another
	// tenant's graph must be indistinguishable from a missing one, in every
	// format.
	if !s.canAccess(r, tenant.ResourceGraph, id) {
		writeError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "text", "binary":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json, text or binary)", format)
		return
	}
	info, ok := s.cfg.Graphs.Stat(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	switch format {
	case "":
		writeJSON(w, http.StatusOK, info)
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(info.SizeBytes))
		err := s.cfg.Graphs.WriteSnapshot(id, w)
		if err == graphstore.ErrNotFound {
			// Evicted between Stat and the write, before any body byte.
			writeError(w, http.StatusNotFound, "no graph %q", id)
			return
		}
		abortOnStreamError("stored graph snapshot", err)
	default:
		// json and text re-shape the graph, so these formats do decode (via
		// the store's byte-budget cache).
		g, ok := s.cfg.Graphs.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no graph %q", id)
			return
		}
		if format == "json" {
			writeJSON(w, http.StatusOK, payloadFromGraph(g))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		abortOnStreamError("stored graph text", g.WriteGraph(w))
	}
}

// storedGraph resolves a stored graph for the caller, answering 404 when it
// is missing. The access check comes first: the stored graphs are the
// sensitive inputs the DP fit protects, so another tenant's graph must look
// exactly like a missing one.
func (s *Server) storedGraph(w http.ResponseWriter, r *http.Request, id string) (*graph.Graph, bool) {
	if s.canAccess(r, tenant.ResourceGraph, id) {
		if g, ok := s.cfg.Graphs.Get(id); ok {
			return g, true
		}
	}
	writeError(w, http.StatusNotFound, "no graph %q", id)
	return nil, false
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.canAccess(r, tenant.ResourceGraph, id) {
		writeError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	// Content addressing shares equal graphs across tenants: dropping this
	// tenant's handle evicts the stored bytes only when it was the last.
	if s.releaseResource(r, tenant.ResourceGraph, id) {
		if s.cfg.Graphs.Evict(id) {
			// The graph is gone; drop its cached metric bundle (memory and
			// the persisted .metrics file) with it.
			s.analytics.Evict(id)
		} else if s.cfg.Tenants == nil {
			writeError(w, http.StatusNotFound, "no graph %q", id)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// jobResponse is the body of the job endpoints: the job snapshot, plus the
// per-sample results on single-job GETs.
type jobResponse struct {
	jobs.Info
	Results []jobs.SampleResult `json:"results,omitempty"`
}

// listJobsResponse is the GET /v1/jobs body.
type listJobsResponse struct {
	Jobs []jobs.Info `json:"jobs"`
}

// acceptJob answers a job submission: 503 when the manager refused it,
// otherwise the job is granted to the caller and its snapshot returned with
// 202.
func (s *Server) acceptJob(w http.ResponseWriter, r *http.Request, id string, err error) {
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "submitting job: %v", err)
		return
	}
	s.grantFor(r, tenant.ResourceJob, id)
	info, _, _ := s.cfg.Jobs.Get(id)
	writeJSON(w, http.StatusAccepted, jobResponse{Info: info})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	list := s.cfg.Jobs.List()
	if s.cfg.Tenants != nil {
		scoped := list[:0]
		for _, info := range list {
			if s.canAccess(r, tenant.ResourceJob, info.ID) {
				scoped = append(scoped, info)
			}
		}
		list = scoped
	}
	writeJSON(w, http.StatusOK, listJobsResponse{Jobs: list})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.canAccess(r, tenant.ResourceJob, id) {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	info, results, ok := s.cfg.Jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	// Pending samples are zero-valued slots; only report finished ones.
	done := make([]jobs.SampleResult, 0, len(results))
	for _, res := range results {
		if res.Seed != 0 || res.Error != "" || res.Nodes != 0 {
			done = append(done, res)
		}
	}
	writeJSON(w, http.StatusOK, jobResponse{Info: info, Results: done})
}

func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Cross-tenant cancellation is 404 like every other scoped mutation.
	// Ownership is not revoked on cancel: a cancelled running job is
	// retained for result pickup, and job IDs are never reused.
	if !s.canAccess(r, tenant.ResourceJob, id) {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !s.cfg.Jobs.Cancel(id) {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
