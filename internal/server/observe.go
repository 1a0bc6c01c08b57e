package server

// Observability endpoints: Prometheus text exposition on GET /metrics, a
// JSON snapshot (with precomputed latency quantiles) on GET /v1/stats, and
// optional net/http/pprof under /debug/pprof/ behind Config.Pprof.

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"agmdp/internal/obs"
)

// registerObservability mounts the metrics endpoints and points the live-
// state gauges at this server's stores. GaugeFunc registration is last-wins,
// so a rebuilt server (tests construct many) re-points the gauges at its own
// stores instead of leaking readers of discarded ones.
func (s *Server) registerObservability() {
	cfg := s.cfg
	m := cfg.Metrics
	m.GaugeFunc("agmdp_models_resident",
		"Fitted models resident in the registry.",
		func() float64 { return float64(cfg.Registry.Len()) })
	m.GaugeFunc("agmdp_models_bytes",
		"Serialized bytes of the resident fitted models.",
		func() float64 { return float64(cfg.Registry.SizeBytes()) })
	m.GaugeFunc("agmdp_graphs_resident",
		"Graphs resident in the graph store.",
		func() float64 { return float64(cfg.Graphs.Len()) })
	m.GaugeFunc("agmdp_graphs_bytes",
		"Canonical snapshot bytes of the stored graphs (on disk for persistent stores).",
		func() float64 { return float64(cfg.Graphs.SizeBytes()) })
	m.GaugeFunc("agmdp_graphstore_decoded_graphs",
		"Decoded graphs resident in the graph store's byte-budget cache.",
		func() float64 { return float64(cfg.Graphs.DecodedLen()) })
	m.GaugeFunc("agmdp_graphstore_decoded_bytes",
		"Heap bytes of decoded CSR graphs resident in the byte-budget cache.",
		func() float64 { return float64(cfg.Graphs.DecodedBytes()) })
	m.GaugeFunc("agmdp_jobs_retained",
		"Jobs known to the manager (queued, running and retained finished).",
		func() float64 { return float64(len(cfg.Jobs.List())) })
	analyticsCache := s.analytics
	m.GaugeFunc("agmdp_analytics_cached_bundles",
		"Encoded metric bundles resident in the analytics cache's LRU.",
		func() float64 { return float64(analyticsCache.Len()) })

	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// handleMetrics serves the registry in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	abortOnStreamError("metrics exposition", s.cfg.Metrics.WritePrometheus(w))
}

// statsResponse is the GET /v1/stats body: every registered metric family as
// JSON, with p50/p95/p99 precomputed for histograms so dashboards need no
// Prometheus between them and the service.
type statsResponse struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Metrics       []obs.FamilySnapshot `json:"metrics"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Metrics:       s.cfg.Metrics.Snapshot(),
	})
}

// buildVersion reports the main module's version from the embedded build
// info, or "devel" when none is stamped (go test binaries, plain go build).
func buildVersion() string {
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Version != "" && info.Main.Version != "(devel)" {
		return info.Main.Version
	}
	return "devel"
}

// goVersion is runtime.Version, indirected for the healthz response.
func goVersion() string { return runtime.Version() }
