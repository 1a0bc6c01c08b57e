// Command agmdp-serve runs the AGM-DP synthesis service: an HTTP/JSON API
// over a fitted-model registry and a concurrent sampling engine. Fit a
// differentially private model once, then sample synthetic graphs from it any
// number of times at no additional privacy cost (the post-processing property
// of Algorithm 3).
//
// Usage:
//
//	agmdp-serve [-addr :8080] [-store DIR] [-graph-store DIR] [-jobs-dir DIR]
//	            [-workers N] [-parallelism N] [-seed 1]
//	            [-max-models N] [-max-graphs N] [-jobs-retain N]
//	            [-max-job-samples N] [-max-concurrent-fits N]
//	            [-metrics-cache N] [-tenants FILE] [-tenant-dir DIR]
//	            [-log-format text|json] [-pprof]
//
// The service speaks the versioned, resource-oriented /v1 API (see
// docs/api.md for the full reference):
//
//	POST   /v1/graphs        upload a graph (JSON, agmdp text, or binary CSR)
//	GET    /v1/graphs[/{id}] list graphs / stat one (?format=json|text|binary downloads)
//	DELETE /v1/graphs/{id}   evict a graph
//	POST   /v1/fit           fit a model from a stored graph, inline graph or dataset
//	                         (async:true detaches the fit into a job)
//	POST   /v1/sample        sample (inline, stored, text or binary); async:true
//	                         with count N detaches a batch of N into a job
//	GET    /v1/graphs/{id}/metrics
//	                         canonical metric bundle of a stored graph, served
//	                         from the content-addressed analytics cache
//	POST   /v1/evaluate      utility evaluation (original vs synthetic) as an
//	                         async job of kind "evaluate"
//	GET    /v1/jobs[/{id}]   list jobs / poll progress and results
//	DELETE /v1/jobs/{id}     cancel (or drop) a job
//	GET    /v1/models[/{id}] list models / metadata (?full=1 for the serialized model)
//	DELETE /v1/models/{id}   evict a model
//	GET    /v1/healthz       service health, uptime, resource counts and load
//	GET    /metrics          Prometheus text exposition of all service metrics
//	GET    /v1/stats         the same metrics as JSON, with latency quantiles
//
// Every response carries an X-Request-Id header (propagated from the request
// when present) and every request is logged as one structured line via
// log/slog in the -log-format of choice. -pprof additionally mounts
// net/http/pprof under /debug/pprof/.
//
// Finished-job metadata persists to -jobs-dir (defaulting to a jobs/
// directory inside -graph-store when one is configured), so job results —
// including the model IDs of async fits — survive restarts.
//
// -tenants FILE enables multi-tenant serving: API requests authenticate with
// X-API-Key (or Authorization: Bearer), each tenant gets a token-bucket rate
// limit, and every DP fit is charged against the tenant's per-graph ε-budget
// — refused with 403 once exhausted. Sampling fitted models stays free (the
// post-processing property). Each tenant is confined to the graphs, models
// and jobs it created — cross-tenant access answers 404 — and the operator
// surfaces (/metrics, /v1/stats, /debug/pprof/) require the tenants file's
// operator_token, since they export per-tenant ε spends. -tenant-dir
// persists the ε-ledger (ledger.jsonl) and the ownership log (owners.jsonl)
// as append-only JSONL so spends and scoping survive restarts. A damaged
// line in the middle of either log refuses startup with its file:line.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests get
// a drain window, running jobs are cancelled, then the engine waits for the
// samples it already admitted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"agmdp/internal/analytics"
	"agmdp/internal/engine"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/parallel"
	"agmdp/internal/registry"
	"agmdp/internal/server"
	"agmdp/internal/tenant"
)

// usageError marks command-line usage problems; main exits 2 for them (as
// flag.ExitOnError did before the testable-run refactor). An empty message
// means the FlagSet already reported the problem.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		var uerr usageError
		if errors.As(err, &uerr) {
			if uerr != "" {
				fmt.Fprintf(os.Stderr, "agmdp-serve: %s\n", string(uerr))
			}
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "agmdp-serve: %v\n", err)
		os.Exit(1)
	}
}

// run builds and serves the synthesis service until the context behind
// SIGINT/SIGTERM (or the optional ready callback's cancellation in tests)
// fires. ready, when non-nil, receives the listen address after the server
// socket is bound.
func run(args []string, stdout io.Writer, ready func(addr string, stop func())) error {
	fs := flag.NewFlagSet("agmdp-serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		store         = fs.String("store", "", "model store directory (empty = in-memory only)")
		tableDir      = fs.String("table-dir", "", "acceptance-table directory (empty = next to the model store; in-memory when no model store)")
		graphStore    = fs.String("graph-store", "", "graph store directory for binary CSR snapshots (empty = in-memory only)")
		graphCache    = fs.Int64("graph-cache-bytes", 0, "byte budget for decoded graphs kept in memory (0 = default 256 MiB, negative = unbounded)")
		jobsDir       = fs.String("jobs-dir", "", "finished-job metadata directory (empty = <graph-store>/jobs, or in-memory when no graph store)")
		workers       = fs.Int("workers", 0, "samples drawn at once, the rest wait (0 = GOMAXPROCS)")
		parallelism   = fs.Int("parallelism", 0, "intra-job sampling streams and the process's fit and metric workers (0 = auto/GOMAXPROCS, 1 = sequential, at most 256)")
		seed          = fs.Int64("seed", 1, "seed of the stream unseeded samples take their seeds from")
		maxModels     = fs.Int("max-models", 0, "max resident models, oldest evicted first (0 = unbounded)")
		maxGraphs     = fs.Int("max-graphs", 0, "max resident graphs, oldest evicted first (0 = unbounded)")
		jobsRetain    = fs.Int("jobs-retain", 0, "finished jobs kept for result pickup (0 = default 64)")
		maxJobSamples = fs.Int("max-job-samples", 0, "max samples per job (0 = default 1024)")
		maxFits       = fs.Int("max-concurrent-fits", 0, "fit jobs running at once, the rest queue (0 = GOMAXPROCS, floored at 2)")
		metricsCache  = fs.Int("metrics-cache", 0, "max metric bundles resident in memory (0 = default 128, negative = unbounded)")
		tenantsFile   = fs.String("tenants", "", "tenants config JSON (enables API-key auth, per-tenant rate limits and ε-budgets)")
		tenantDir     = fs.String("tenant-dir", "", "ε-ledger directory, persisted as append-only JSONL (empty = in-memory ledger)")
		logFormat     = fs.String("log-format", "text", "structured log format: text or json")
		pprofFlag     = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (operator-facing listeners only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already printed the parse error and usage.
		return usageError("")
	}

	if *parallelism > parallel.MaxWorkers {
		return usageError(fmt.Sprintf("-parallelism %d above %d", *parallelism, parallel.MaxWorkers))
	}

	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return usageError(fmt.Sprintf("unknown -log-format %q (want text or json)", *logFormat))
	}
	logger := slog.New(logHandler)
	// The default logger backs the per-request lines and the package-level
	// error paths (stream aborts, job-persistence failures).
	slog.SetDefault(logger)
	// The fit and metric passes shard on the process-default worker count;
	// their results are the same at every count.
	defer parallel.SetParallelism(parallel.SetParallelism(*parallelism))

	reg, err := registry.Open(registry.Options{Dir: *store, TableDir: *tableDir, MaxModels: *maxModels})
	if err != nil {
		return err
	}
	for _, warning := range reg.LoadWarnings() {
		logger.Warn("skipped store file", "warning", warning)
	}
	graphs, err := graphstore.Open(graphstore.Options{Dir: *graphStore, MaxGraphs: *maxGraphs, CacheBytes: *graphCache})
	if err != nil {
		return err
	}
	// Release snapshot memory maps after the server (deferred later, so it
	// unwinds first) has stopped serving them.
	defer graphs.Close()
	for _, warning := range graphs.LoadWarnings() {
		logger.Warn("skipped graph snapshot", "warning", warning)
	}
	// Metric bundles persist next to the graph snapshots they describe, so a
	// deployment that persists its graphs serves warm analytics across
	// restarts; without a graph-store directory the bundle cache is
	// memory-only, like the graphs themselves.
	metrics, err := analytics.NewCache(analytics.Options{
		Source:     graphs,
		Dir:        *graphStore,
		MaxEntries: *metricsCache,
	})
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{
		Workers:     *workers,
		Seed:        *seed,
		Parallelism: *parallelism,
		// The registry doubles as the acceptance-table cache: default-shaped
		// sample requests reuse each model's refined acceptance filter
		// instead of re-fitting it per sample.
		Acceptance: reg,
	})
	defer eng.Close()
	// Finished-job metadata lives next to the graph store by default, so a
	// deployment that persists its graphs automatically keeps its job
	// results — including async fit model IDs — across restarts.
	jobsPath := *jobsDir
	if jobsPath == "" && *graphStore != "" {
		jobsPath = filepath.Join(*graphStore, "jobs")
	}
	jobMgr, err := jobs.New(jobs.Options{
		Engine:            eng,
		Store:             graphs,
		Models:            reg,
		Retain:            *jobsRetain,
		Dir:               jobsPath,
		MaxConcurrentFits: *maxFits,
		// Matches the server's default /v1/sample deadline, so a wedged sample
		// inside a batch job cannot hold its caller forever.
		SampleTimeout: time.Minute,
	})
	if err != nil {
		return err
	}
	for _, warning := range jobMgr.Warnings() {
		logger.Warn("skipped job record", "warning", warning)
	}
	// Deferred after eng.Close, so running jobs are cancelled and drained
	// before the engine shuts down.
	defer jobMgr.Close()

	// Tenancy is opt-in: without -tenants the server stays open (no auth, no
	// budgets), exactly as before. With it, every API request needs a key and
	// every DP fit is charged against the tenant's persistent ε-ledger.
	var tenants *tenant.Registry
	if *tenantsFile != "" {
		tenants, err = tenant.Open(tenant.Options{Path: *tenantsFile, Dir: *tenantDir})
		if err != nil {
			return err
		}
		defer tenants.Close()
		for _, warning := range tenants.Warnings() {
			logger.Warn("skipped ledger line", "warning", warning)
		}
	} else if *tenantDir != "" {
		return usageError("-tenant-dir requires -tenants")
	}

	srv, err := server.New(server.Config{
		Registry:      reg,
		Engine:        eng,
		Graphs:        graphs,
		Jobs:          jobMgr,
		Analytics:     metrics,
		MaxJobSamples: *maxJobSamples,
		Logger:        logger,
		Pprof:         *pprofFlag,
		Tenants:       tenants,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "agmdp-serve: listening on %s (store %q, %d models loaded; graph store %q, %d graphs loaded)\n",
		ln.Addr(), *store, reg.Len(), *graphStore, graphs.Len())
	if ready != nil {
		ready(ln.Addr().String(), stop)
	}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	return <-errc
}
