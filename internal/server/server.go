// Package server exposes the AGM-DP synthesis service over HTTP as a
// versioned, resource-oriented API. The /v1 surface manages three resource
// collections — graphs (uploaded or synthesized CSR graphs in the content-
// addressed graph store), models (fitted AGM-DP parameters in the registry)
// and jobs (asynchronous fits, sample batches and evaluations) — plus the
// /v1/fit, /v1/sample and /v1/evaluate actions that connect them: fit a
// differentially private model once from an uploaded graph, then sample
// synthetic graphs from it any number of times at no additional privacy
// cost. Each action has one route; async:true detaches a fit or a sample
// batch into a job, and /v1/jobs only lists, polls and cancels jobs. Graphs
// travel in three interchangeable wire formats (inline JSON, agmdp text, and
// the binary CSR snapshot), negotiated per request. See docs/api.md for the
// full endpoint reference.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"agmdp/internal/analytics"
	"agmdp/internal/core"
	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/obs"
	"agmdp/internal/registry"
	"agmdp/internal/structural"
	"agmdp/internal/tenant"
)

// Config configures a Server. Registry and Engine are required.
type Config struct {
	Registry *registry.Registry
	Engine   *engine.Engine
	// Graphs is the content-addressed graph store behind /v1/graphs; when
	// nil an in-memory store is created.
	Graphs *graphstore.Store
	// Jobs runs the asynchronous fits, sample batches and evaluations behind
	// /v1/jobs; when nil a manager over Engine and Graphs is created (and
	// owned by the server: Close shuts it down).
	Jobs *jobs.Manager
	// Analytics is the content-addressed metric-bundle cache behind
	// GET /v1/graphs/{id}/metrics; when nil a memory-only cache over Graphs
	// is created. Inject a cache with a directory (typically the graph
	// store's) to persist bundles as <id>.metrics next to the snapshots.
	Analytics *analytics.Cache
	// FitTimeout bounds synchronous POST /v1/fit requests (default 5 minutes).
	// Fitting runs in the request goroutine under a context carrying this
	// deadline: it bounds the wait for one of the jobs manager's fit slots
	// and aborts an in-progress fit at its next stage boundary. Asynchronous
	// fits (async:true) are not bounded by it.
	FitTimeout time.Duration
	// SampleTimeout bounds synchronous POST /v1/sample requests and each
	// sample of a default-built jobs manager's batches and evaluations
	// (default 1 minute). A sample whose deadline passes while it waits for
	// an engine slot is abandoned; one that passes mid-draw returns its
	// error at once while the draw runs out.
	SampleTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 64 MiB — inline and binary
	// graph uploads carry full edge lists).
	MaxBodyBytes int64
	// MaxFitNodes caps the node count of a stored or fitted graph, whether
	// inline, uploaded or dataset-generated (default 2,000,000). The graph
	// substrate allocates per-node state up front, so an unchecked
	// client-supplied n could exhaust memory from a tiny request body.
	MaxFitNodes int
	// MaxFitAttributes caps the attribute width of a stored or fitted graph
	// (default 12). The correlation estimators allocate O(4^w) state, so
	// widths the attrs layer technically supports can still exhaust memory
	// from a tiny request; the paper's experiments use w = 2.
	MaxFitAttributes int
	// MaxJobSamples caps the per-job sample count (default 1024).
	MaxJobSamples int
	// Metrics backs GET /metrics and GET /v1/stats and receives the server's
	// per-route request metrics; nil selects the process-wide default
	// registry, which the engine, parallel, jobs and store layers also register
	// into, so one scrape covers the whole service.
	Metrics *obs.Registry
	// Logger receives one structured line per request; nil selects
	// slog.Default().
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. The
	// profiling handlers expose stack traces and timings — enable them on
	// operator-facing listeners only.
	Pprof bool
	// Tenants enables multi-tenant serving: API-key authentication, per-
	// tenant token-bucket rate limits, ε-budget admission of DP fits against
	// the registry's persistent ledger, per-tenant resource scoping (each
	// tenant sees only the graphs, models and jobs it created), and operator-
	// token gating of /metrics, /v1/stats and /debug/pprof/. Nil disables
	// tenancy entirely — the server behaves exactly as before.
	Tenants *tenant.Registry
}

// Server handles the synthesis-service HTTP API.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	ownsJobs bool
	start    time.Time
	logger   *slog.Logger

	// analytics is Config.Analytics (or the default cache built over the
	// graph store).
	analytics *analytics.Cache

	// Per-route request metrics, registered on cfg.Metrics at construction.
	httpRequests *obs.CounterVec
	httpDur      *obs.HistogramVec
	// Admission-control refusals by reason (unauthorized, rate_limit,
	// budget); registered even with tenancy disabled so dashboards can rely
	// on the family existing.
	admissionRejects *obs.CounterVec
}

// New builds a Server over a registry and an engine.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("server: nil registry")
	}
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.FitTimeout <= 0 {
		cfg.FitTimeout = 5 * time.Minute
	}
	if cfg.SampleTimeout <= 0 {
		cfg.SampleTimeout = time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.MaxFitNodes <= 0 {
		cfg.MaxFitNodes = 2_000_000
	}
	if cfg.MaxFitAttributes <= 0 {
		cfg.MaxFitAttributes = 12
	}
	if cfg.MaxJobSamples <= 0 {
		cfg.MaxJobSamples = 1024
	}
	ownsJobs := false
	if cfg.Graphs == nil {
		var err error
		cfg.Graphs, err = graphstore.Open(graphstore.Options{})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Jobs == nil {
		var err error
		cfg.Jobs, err = jobs.New(jobs.Options{
			Engine:        cfg.Engine,
			Store:         cfg.Graphs,
			Models:        cfg.Registry,
			SampleTimeout: cfg.SampleTimeout,
		})
		if err != nil {
			return nil, err
		}
		ownsJobs = true
	}
	if cfg.Analytics == nil {
		var err error
		cfg.Analytics, err = analytics.NewCache(analytics.Options{Source: cfg.Graphs})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		ownsJobs:  ownsJobs,
		start:     time.Now(),
		logger:    cfg.Logger,
		analytics: cfg.Analytics,
		httpRequests: cfg.Metrics.CounterVec("agmdp_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		httpDur: cfg.Metrics.HistogramVec("agmdp_http_request_duration_seconds",
			"Wall-clock duration of HTTP requests, by route pattern.",
			nil, "route"),
		admissionRejects: cfg.Metrics.CounterVec("agmdp_admission_rejects_total",
			"Requests refused by tenant admission control, by reason.",
			"reason"),
	}

	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("GET /v1/models/{id}", s.handleGetModel)
	s.mux.HandleFunc("DELETE /v1/models/{id}", s.handleEvictModel)
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("POST /v1/sample", s.handleSample)
	s.mux.HandleFunc("POST /v1/graphs", s.handleCreateGraph)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGetGraph)
	s.mux.HandleFunc("GET /v1/graphs/{id}/metrics", s.handleGraphMetrics)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	s.registerObservability()
	return s, nil
}

// Handler returns the root http.Handler of the service: the route mux behind
// the tenant-authentication middleware (a no-op with tenancy disabled)
// behind the request-instrumentation middleware (request IDs, per-route
// metrics, one structured log line per request) — so rejected and throttled
// requests are instrumented like any other.
func (s *Server) Handler() http.Handler { return s.instrument(s.authenticate(s.mux)) }

// Close releases resources the server created itself (currently the default
// jobs manager, which cancels running jobs and waits for them). Callers that
// injected their own Config.Jobs manage its lifecycle themselves.
func (s *Server) Close() {
	if s.ownsJobs {
		s.cfg.Jobs.Close()
	}
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v as a JSON response with the given status. Encoding
// failures cannot be turned into an error status (the header is already
// written), so the handler is aborted instead: the connection drops and the
// client sees a truncated transfer rather than a clean 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("server: writing JSON response failed", "error", err)
		panic(http.ErrAbortHandler)
	}
}

// abortOnStreamError handles a failure while streaming a response body that
// already carries a success status: log it and abort the handler so the
// truncation is visible to the client as a broken connection, not a clean
// end of body.
func abortOnStreamError(what string, err error) {
	if err != nil {
		slog.Error("server: streaming response failed", "what", what, "error", err)
		panic(http.ErrAbortHandler)
	}
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body into v with the configured size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// healthzResponse is the GET /v1/healthz body: status and resource counts,
// uptime, build identity and store byte sizes.
type healthzResponse struct {
	Status        string       `json:"status"`
	Models        int          `json:"models"`
	Graphs        int          `json:"graphs"`
	Jobs          int          `json:"jobs"`
	Engine        engine.Stats `json:"engine"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	GoVersion     string       `json:"go_version"`
	Build         string       `json:"build"`
	ModelBytes    int64        `json:"model_bytes"`
	GraphBytes    int64        `json:"graph_bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		Models:        s.cfg.Registry.Len(),
		Graphs:        s.cfg.Graphs.Len(),
		Jobs:          len(s.cfg.Jobs.List()),
		Engine:        s.cfg.Engine.Stats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     goVersion(),
		Build:         buildVersion(),
		ModelBytes:    s.cfg.Registry.SizeBytes(),
		GraphBytes:    s.cfg.Graphs.SizeBytes(),
	})
}

// listModelsResponse is the GET /v1/models body.
type listModelsResponse struct {
	Models []registry.Info `json:"models"`
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	models := s.cfg.Registry.List()
	if s.cfg.Tenants != nil {
		scoped := models[:0]
		for _, info := range models {
			if s.canAccess(r, tenant.ResourceModel, info.ID) {
				scoped = append(scoped, info)
			}
		}
		models = scoped
	}
	writeJSON(w, http.StatusOK, listModelsResponse{Models: models})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.canAccess(r, tenant.ResourceModel, id) {
		writeError(w, http.StatusNotFound, "no model %q", id)
		return
	}
	if full := r.URL.Query().Get("full"); full != "" && full != "0" && full != "false" {
		data, ok := s.cfg.Registry.Bytes(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no model %q", id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, err := w.Write(data)
		abortOnStreamError("serialized model", err)
		return
	}
	info, ok := s.cfg.Registry.Stat(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no model %q", id)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleEvictModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.canAccess(r, tenant.ResourceModel, id) {
		writeError(w, http.StatusNotFound, "no model %q", id)
		return
	}
	// Content addressing means another tenant may hold a handle on the same
	// model bytes: dropping this tenant's handle evicts the shared model only
	// when it was the last.
	if s.releaseResource(r, tenant.ResourceModel, id) {
		if !s.cfg.Registry.Evict(id) && s.cfg.Tenants == nil {
			writeError(w, http.StatusNotFound, "no model %q", id)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// graphPayload is the inline JSON form of an attributed graph. Attrs holds
// one bitmask per node (bit j = attribute j); it may be omitted for
// structure-only graphs.
type graphPayload struct {
	N     int      `json:"n"`
	W     int      `json:"w"`
	Attrs []uint64 `json:"attrs,omitempty"`
	Edges [][2]int `json:"edges"`
}

// toGraph materialises the payload, validating IDs and widths.
func (p *graphPayload) toGraph() (*graph.Graph, error) {
	if p.N < 0 || p.W < 0 || p.W > graph.MaxAttributes {
		return nil, fmt.Errorf("graph dimensions n=%d w=%d out of range", p.N, p.W)
	}
	if p.Attrs != nil && len(p.Attrs) != p.N {
		return nil, fmt.Errorf("got %d attribute vectors for %d nodes", len(p.Attrs), p.N)
	}
	edges := make([]graph.Edge, 0, len(p.Edges))
	for i, e := range p.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= p.N || v < 0 || v >= p.N {
			return nil, fmt.Errorf("edge %d endpoint out of range [0, %d)", i, p.N)
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g := graph.FromEdges(p.N, p.W, edges)
	if p.Attrs != nil {
		vecs := make([]graph.AttrVector, len(p.Attrs))
		for i, a := range p.Attrs {
			vecs[i] = graph.AttrVector(a)
		}
		g = g.WithAttributes(p.W, vecs)
	}
	return g, nil
}

// payloadFromGraph converts a graph into its inline JSON form.
func payloadFromGraph(g *graph.Graph) *graphPayload {
	p := &graphPayload{N: g.NumNodes(), W: g.NumAttributes(), Edges: make([][2]int, 0, g.NumEdges())}
	for _, e := range g.Edges() {
		p.Edges = append(p.Edges, [2]int{e.U, e.V})
	}
	if g.NumAttributes() > 0 {
		p.Attrs = make([]uint64, g.NumNodes())
		for i := range p.Attrs {
			p.Attrs[i] = uint64(g.Attr(i))
		}
	}
	return p
}

// checkGraphLimits enforces the configured node and attribute caps on a
// materialised graph, whatever wire format it arrived in.
func (s *Server) checkGraphLimits(g *graph.Graph) error {
	if n := g.NumNodes(); n > s.cfg.MaxFitNodes {
		return fmt.Errorf("graph has %d nodes, limit is %d", n, s.cfg.MaxFitNodes)
	}
	if w := g.NumAttributes(); w > s.cfg.MaxFitAttributes {
		return fmt.Errorf("graph has %d attributes, limit is %d", w, s.cfg.MaxFitAttributes)
	}
	return nil
}

// datasetSpec asks the service to generate one of the calibrated synthetic
// datasets server-side instead of uploading a graph.
type datasetSpec struct {
	Name  string  `json:"name"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

// fitRequest is the POST /v1/fit body. Exactly one of Graph, GraphID or
// Dataset must be set. Epsilon 0 requests a non-private (baseline) fit. A
// fit's measurement passes run on the process-default worker count, and the
// fitted model is bit-identical for every count. Async detaches the fit into
// a job of kind "fit": the response is 202 with a job snapshot instead of
// the fitted model, and the model ID arrives in the finished job's result.
//
// Seed seeds the private fit's noise draws; an omitted seed means 0. Anyone
// who knows a private fit's seed can replay its Laplace draws and subtract
// them from the released model, which voids the fit's privacy. Nor is a
// seed a secret key: math/rand has fewer than 2^31 streams, few enough to
// try them all.
type fitRequest struct {
	Graph       *graphPayload `json:"graph,omitempty"`
	GraphID     string        `json:"graph_id,omitempty"`
	Dataset     *datasetSpec  `json:"dataset,omitempty"`
	Epsilon     float64       `json:"epsilon,omitempty"`
	Model       string        `json:"model,omitempty"`
	TruncationK int           `json:"truncation_k,omitempty"`
	Seed        int64         `json:"seed,omitempty"`
	Async       bool          `json:"async,omitempty"`
}

// fitResponse is the POST /v1/fit body on success.
type fitResponse struct {
	ID   string        `json:"id"`
	Info registry.Info `json:"info"`
}

// validateFitRequest checks the request fields shared by the synchronous and
// asynchronous fit paths, writing the error response itself and reporting
// whether the request may proceed.
func (s *Server) validateFitRequest(w http.ResponseWriter, req *fitRequest) bool {
	inputs := 0
	for _, set := range []bool{req.Graph != nil, req.GraphID != "", req.Dataset != nil} {
		if set {
			inputs++
		}
	}
	if inputs != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of graph, graph_id or dataset must be set")
		return false
	}
	if req.Epsilon < 0 {
		writeError(w, http.StatusBadRequest, "negative epsilon %v (use 0 for a non-private baseline fit)", req.Epsilon)
		return false
	}
	if _, err := structural.ByName(req.Model, 0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// resolveFitInput materialises the fit input — inline payload, stored graph,
// or server-side dataset — enforcing the configured limits and, on a tenant-
// enabled server, the caller's access to the stored graph. It writes the
// error response itself; the graph is nil when the request cannot proceed.
func (s *Server) resolveFitInput(w http.ResponseWriter, r *http.Request, req *fitRequest) *graph.Graph {
	switch {
	case req.Graph != nil:
		if req.Graph.N > s.cfg.MaxFitNodes {
			writeError(w, http.StatusBadRequest, "graph has %d nodes, limit is %d", req.Graph.N, s.cfg.MaxFitNodes)
			return nil
		}
		if req.Graph.W > s.cfg.MaxFitAttributes {
			writeError(w, http.StatusBadRequest, "graph has %d attributes, limit is %d", req.Graph.W, s.cfg.MaxFitAttributes)
			return nil
		}
		g, err := req.Graph.toGraph()
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid graph: %v", err)
			return nil
		}
		return g
	case req.GraphID != "":
		g, ok := s.storedGraph(w, r, req.GraphID)
		if !ok {
			return nil
		}
		if err := s.checkGraphLimits(g); err != nil {
			writeError(w, http.StatusBadRequest, "stored %v", err)
			return nil
		}
		return g
	default:
		p, err := datasets.ByName(req.Dataset.Name)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		scale := req.Dataset.Scale
		if scale <= 0 {
			scale = p.DefaultScale
		}
		if err := datasets.CheckScale(scale); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		if scaled := p.Scaled(scale); scaled.Nodes > s.cfg.MaxFitNodes {
			writeError(w, http.StatusBadRequest, "dataset at scale %v has %d nodes, limit is %d", scale, scaled.Nodes, s.cfg.MaxFitNodes)
			return nil
		}
		return datasets.Generate(dp.NewRand(req.Dataset.Seed), p.Scaled(scale))
	}
}

// submitFitJob charges the tenant's ε-ledger (when tenancy is enabled),
// detaches a validated fit request into a job of kind "fit" and answers 202
// with the job snapshot. A charged fit that ends without registering a model
// — cancelled while queued or mid-pipeline, or failed — refunds its ε
// through the job's terminal callback.
func (s *Server) submitFitJob(w http.ResponseWriter, r *http.Request, req *fitRequest, g *graph.Graph) {
	refund, ok := s.admitFit(w, r, req, g)
	if !ok {
		return
	}
	id, err := s.cfg.Jobs.SubmitFit(jobs.FitSpec{
		Graph:       g,
		GraphID:     req.GraphID,
		Epsilon:     req.Epsilon,
		TruncationK: req.TruncationK,
		ModelKind:   req.Model,
		Seed:        req.Seed,
		OnDone:      s.onFitDone(r, refund),
	})
	if err != nil {
		// Never ran, so nothing was released: the charge comes straight back.
		refund()
	}
	s.acceptJob(w, r, id, err)
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.FitTimeout)
	defer cancel()

	var req fitRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding fit request: %v", err)
		return
	}
	if !s.validateFitRequest(w, &req) {
		return
	}
	g := s.resolveFitInput(w, r, &req)
	if g == nil {
		return
	}
	if req.Async {
		// Asynchronous fits run under the job manager, not the request
		// deadline: returning a job ID instead of holding the connection is
		// the whole point for fits that take minutes.
		s.submitFitJob(w, r, &req, g)
		return
	}
	if err := ctx.Err(); err != nil {
		writeError(w, http.StatusRequestTimeout, "fit deadline exceeded before fitting started")
		return
	}

	model, err := structural.ByName(req.Model, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Synchronous fits take the same bounded fit slots the async jobs queue
	// on — otherwise N sync requests would defeat the -max-concurrent-fits
	// admission bound entirely. The wait is capped by the fit deadline; a
	// saturated server answers 503 rather than stacking unbounded pipelines.
	if err := s.cfg.Jobs.AcquireFitSlot(ctx); err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"all fit slots busy: %v (retry later or submit with async:true to queue)", err)
		return
	}
	defer s.cfg.Jobs.ReleaseFitSlot()
	refund, ok := s.admitFit(w, r, &req, g)
	if !ok {
		return
	}
	// The same entry point the async fit jobs use, so the two paths cannot
	// drift: an async fit registers exactly this model. The request context
	// rides along, so a disconnected client or an expired deadline aborts the
	// fit at the next stage boundary instead of burning workers to completion.
	fitted, err := core.FitModel(ctx, dp.NewRand(req.Seed), g, core.Config{
		Epsilon:     req.Epsilon,
		TruncationK: req.TruncationK,
		Model:       model,
	})
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		refund()
		writeError(w, http.StatusRequestTimeout, "fit aborted: %v", err)
		return
	}
	if err != nil {
		refund()
		writeError(w, http.StatusUnprocessableEntity, "fit failed: %v", err)
		return
	}

	id, err := s.cfg.Registry.Put(fitted)
	if err != nil {
		refund()
		writeError(w, http.StatusInternalServerError, "storing model: %v", err)
		return
	}
	s.grantFor(r, tenant.ResourceModel, id)
	info, _ := s.cfg.Registry.Stat(id)
	writeJSON(w, http.StatusOK, fitResponse{ID: id, Info: info})
}

// sampleRequest is the POST /v1/sample body. Format selects the response shape:
// "json" (default) inlines the graph as a graphPayload; "text" streams the
// agmdp graph text format; "binary" streams the binary CSR snapshot
// (deterministic and byte-identical for equal seeds — it is encoded straight
// from the sampler's row source, never materialising the packed CSR arrays);
// "summary" returns statistics only. The format may equivalently
// be passed as a ?format= query parameter (the body field wins when both are
// set). Store stores the sampled graph into the graph store and returns its
// ID with the summary instead of inlining the graph (JSON formats only).
//
// Async detaches the request into a job of kind "sample" that draws Count
// samples (default 1): the response is 202 with a job snapshot, and each
// sample arrives as a summary in the job's results — with its graph ID when
// Store is set. A job returns summaries only, so a format is refused with
// Async, and Count without it.
type sampleRequest struct {
	ID string `json:"id"`
	drawParams
	Format string `json:"format,omitempty"`
	Store  bool   `json:"store,omitempty"`
	Async  bool   `json:"async,omitempty"`
}

// drawParams are the body fields that shape a batch of draws, shared by
// POST /v1/sample and the model mode of POST /v1/evaluate. Count samples are
// drawn (default 1, at most Config.MaxJobSamples); with a non-zero Seed,
// sample i runs with seed Seed+i, so a batch is as reproducible as the
// equivalent synchronous samples, and 0 means unseeded. Iterations sets the
// refinement rounds (0 = default, at most core.MaxSampleIterations).
// Parallelism overrides the engine's intra-draw stream count (0 = engine
// default, 1 = sequential, at most parallel.MaxWorkers); seeded samples
// reproduce only at equal parallelism.
type drawParams struct {
	Count       int    `json:"count,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Iterations  int    `json:"iterations,omitempty"`
	Model       string `json:"model,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
}

// checkDraws validates a batch of draws from the model named id and resolves
// that model for the caller, writing the error response itself: 400 for a
// count, parallelism or iterations out of range, a seed range that crosses 0
// or an unknown model kind, then 404 for a model the caller cannot reach.
func (s *Server) checkDraws(w http.ResponseWriter, r *http.Request, id string, p drawParams) (jobs.Draws, bool) {
	d := jobs.Draws{
		ModelID:     id,
		Count:       max(p.Count, 1),
		Seed:        p.Seed,
		Iterations:  p.Iterations,
		ModelKind:   p.Model,
		Parallelism: p.Parallelism,
	}
	if p.Count < 0 || p.Count > s.cfg.MaxJobSamples {
		writeError(w, http.StatusBadRequest, "count %d outside [1, %d]", p.Count, s.cfg.MaxJobSamples)
		return d, false
	}
	if err := d.Check(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return d, false
	}
	// Sampling is free of ε charges (the paper's post-processing property),
	// but not free of scoping: a tenant samples only the models it fitted.
	// The shared decoded instance skips a per-request model decode; sampling
	// never mutates it.
	if s.canAccess(r, tenant.ResourceModel, id) {
		d.Model, _ = s.cfg.Registry.Model(id)
	}
	if d.Model == nil {
		writeError(w, http.StatusNotFound, "no model %q", id)
		return d, false
	}
	return d, true
}

// sampleResponse is the POST /v1/sample body for the json and summary formats.
type sampleResponse struct {
	ID        string        `json:"id"`
	Seed      int64         `json:"seed"`
	Nodes     int           `json:"nodes"`
	Edges     int           `json:"edges"`
	Triangles int64         `json:"triangles"`
	GraphID   string        `json:"graph_id,omitempty"`
	Graph     *graphPayload `json:"graph,omitempty"`
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SampleTimeout)
	defer cancel()

	var req sampleRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding sample request: %v", err)
		return
	}
	if req.Format == "" {
		req.Format = r.URL.Query().Get("format")
	}
	switch req.Format {
	case "", "json", "text", "binary", "summary":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want json, text, binary or summary)", req.Format)
		return
	}
	switch {
	case req.Async && req.Format != "":
		writeError(w, http.StatusBadRequest, "an async sample returns a job of summaries; it cannot be combined with format %q", req.Format)
		return
	case !req.Async && req.Count != 0:
		writeError(w, http.StatusBadRequest, "count applies to async samples only")
		return
	case req.Store && (req.Format == "text" || req.Format == "binary"):
		writeError(w, http.StatusBadRequest, "store returns a JSON summary; it cannot be combined with format %q", req.Format)
		return
	}
	d, ok := s.checkDraws(w, r, req.ID, req.drawParams)
	if !ok {
		return
	}

	if req.Async {
		spec := jobs.Spec{Draws: d, Store: req.Store}
		// Graphs the job stores back belong to the submitting tenant, like
		// the synchronous store path. The hook fires on job goroutines; the
		// ownership store is concurrency-safe.
		if t := tenantFrom(r.Context()); t != nil && req.Store {
			tenantID := t.ID
			spec.OnStored = func(graphID string) {
				s.grantResource(tenantID, tenant.ResourceGraph, graphID)
			}
		}
		id, err := s.cfg.Jobs.Submit(spec)
		s.acceptJob(w, r, id, err)
		return
	}
	ereq := d.Request(0)

	// The binary format encodes straight from the sampler's row source (the
	// generator's builder): the packed offsets/neighbors arrays are never
	// materialised and the encoder holds one row at a time, so memory beyond
	// the builder itself stays O(row) from sampler to socket. The encoding is
	// canonical, so the bytes equal those of the materialised graph.
	if req.Format == "binary" {
		src, _, err := s.cfg.Engine.SampleSourceSeeded(ctx, ereq)
		if !s.checkSampleError(w, err) {
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(graph.SourceBinarySize(src)))
		abortOnStreamError("sampled graph snapshot", graph.WriteBinaryTo(w, src))
		return
	}

	g, seed, err := s.cfg.Engine.SampleSeeded(ctx, ereq)
	if !s.checkSampleError(w, err) {
		return
	}

	if req.Format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		abortOnStreamError("sampled graph text", g.WriteGraph(w))
		return
	}
	resp := sampleResponse{
		ID:        req.ID,
		Seed:      seed,
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		Triangles: g.Triangles(),
	}
	if req.Store {
		id, err := s.cfg.Graphs.Put(g)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "storing sampled graph: %v", err)
			return
		}
		s.grantFor(r, tenant.ResourceGraph, id)
		resp.GraphID = id
	} else if req.Format != "summary" {
		resp.Graph = payloadFromGraph(g)
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkSampleError maps an engine sampling error to its HTTP response,
// reporting whether the handler may proceed with a success body.
func (s *Server) checkSampleError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "sampling timed out: %v", err)
		return false
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "engine shutting down")
		return false
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, "sampling failed: %v", err)
		return false
	}
	return true
}
