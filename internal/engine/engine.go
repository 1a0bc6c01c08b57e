// Package engine provides a concurrent synthesis engine for fitted AGM-DP
// models: a fixed pool of workers drains a bounded job queue, each worker owns
// a deterministic RNG stream (base seed + worker index), and individual
// sampling jobs additionally shard their structural generation — the
// Chung–Lu edge proposals of FCL samples and TriCycLe seeds — across
// intra-job streams that execute on the process-wide worker pool
// (internal/parallel), so job throughput and per-job latency scale without
// oversubscribing the machine.
// An optional acceptance-table cache (the registry) lets repeat samples of a
// model skip the per-sample refinement rounds.
//
// Sampling a fitted model consumes no privacy budget (post-processing), so
// the engine can serve an unbounded number of synthesis requests from one
// expensive fit. Determinism contract: a job that carries an explicit seed
// produces the same graph no matter which worker runs it or how loaded the
// engine is; jobs without a seed draw one from the executing worker's stream
// and are reproducible only under identical scheduling.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"agmdp/internal/core"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/obs"
	"agmdp/internal/parallel"
	"agmdp/internal/structural"
)

// Engine metrics on the process-wide default registry. The counters and the
// histogram are shared by every engine in the process (production runs one);
// live queue/in-flight gauges for a specific engine are wired by the server
// through Stats-reading gauge funcs. Instrumentation reads clocks only —
// seeds and worker RNG streams are untouched.
var (
	engineSamples = obs.Default().CounterVec("agmdp_engine_samples_total",
		"Samples drawn by the synthesis engine, by result.", "result")
	engineSampleDur = obs.Default().Histogram("agmdp_engine_sample_duration_seconds",
		"Wall-clock duration of one engine sample (structural generation, refinement and attribute attachment).")
	engineTableFits = obs.Default().Counter("agmdp_engine_acceptance_table_fits_total",
		"Acceptance-table cold-cache fits performed by the engine.")
)

// ErrClosed is returned by Sample after Close has been called.
var ErrClosed = errors.New("engine: closed")

// Config configures an Engine.
type Config struct {
	// Workers is the number of concurrent sampling workers; values below 1
	// select runtime.GOMAXPROCS(0).
	Workers int
	// QueueSize bounds the job queue; Sample blocks (respecting its context)
	// while the queue is full, which gives natural backpressure under load.
	// Values below 1 select 4×Workers.
	QueueSize int
	// Seed is the base seed for the per-worker RNG streams: worker i draws
	// from a stream seeded with Seed+i. Jobs with explicit seeds ignore the
	// worker streams entirely.
	Seed int64
	// Parallelism is the number of intra-job proposal streams handed to the
	// structural samplers: ≤ 0 means "auto" (the process default,
	// runtime.GOMAXPROCS unless overridden with parallel.SetParallelism),
	// 1 samples each job sequentially. It is independent of Workers: Workers
	// scales throughput across jobs, Parallelism scales latency within one
	// job. Both fan out on the same shared worker pool, so raising both does
	// not oversubscribe the machine — shard tasks queue behind the pool's
	// GOMAXPROCS residents.
	Parallelism int
	// Acceptance, when non-nil, caches per-model acceptance tables so
	// sampling jobs skip the per-sample refinement rounds; see the
	// AcceptanceCache interface. The registry satisfies it.
	Acceptance AcceptanceCache
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize < 1 {
		c.QueueSize = 4 * c.Workers
	}
	// Parallelism is deliberately NOT resolved here: ≤ 0 stays "auto" so a
	// later parallel.SetParallelism call still affects this engine's jobs
	// (the generators resolve at use time).
	return c
}

// Request describes one sampling job.
type Request struct {
	// Model is the fitted model to sample from. Required.
	Model *core.FittedModel
	// Seed, when non-zero, makes the job fully deterministic: equal seeds (at
	// equal engine Parallelism) give byte-identical graphs. Zero draws a seed
	// from the executing worker's stream.
	Seed int64
	// Iterations is the number of acceptance-probability refinement rounds;
	// zero selects core.DefaultSampleIterations.
	Iterations int
	// ModelKind optionally overrides the structural model ("tricycle", "fcl",
	// "tcl"); empty uses the model the parameters were fitted for.
	ModelKind string
	// Parallelism overrides the engine's intra-job stream count for this job
	// only; 0 keeps the engine default, 1 forces sequential sampling. The
	// resolved value is part of the determinism contract: equal seeds give
	// equal graphs only at equal parallelism.
	Parallelism int
	// CacheKey, when non-empty, identifies the model (its registry ID) for
	// acceptance-table caching. It is consulted only when the engine has an
	// Acceptance cache and the request uses default Iterations; see
	// AcceptanceCache.
	CacheKey string
}

// Stats is a point-in-time snapshot of engine load, served by /v1/healthz.
type Stats struct {
	Workers     int   `json:"workers"`
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	Parallelism int   `json:"parallelism"`
	InFlight    int64 `json:"in_flight"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
}

// job pairs a request with its reply channel.
type job struct {
	ctx    context.Context
	req    Request
	seed   int64 // resolved seed; 0 means "draw from worker stream"
	stream bool  // return the generator's row source instead of a packed graph
	result chan jobResult
}

type jobResult struct {
	src  graph.RowSource // *graph.Graph unless the job asked to stream
	seed int64           // the seed that actually drove the draw
	err  error
}

// Engine is a concurrent sampling worker pool. Construct with New; the zero
// value is not usable.
type Engine struct {
	cfg       Config
	jobs      chan *job
	wg        sync.WaitGroup
	mu        sync.RWMutex
	closed    bool
	completed atomic.Int64
	failed    atomic.Int64
	inFlight  atomic.Int64

	// fitMu/fitting single-flight the acceptance-table fits: when several
	// workers miss the cache for the same cold model at once, one fits and
	// the rest wait for its result instead of burning a structural
	// generation each on identical work (tables are pure functions of the
	// model, so every duplicate would have produced the same bytes).
	fitMu   sync.Mutex
	fitting map[string]chan struct{}
}

// New starts an engine with cfg.Workers sampling workers. Callers must Close
// the engine to release them.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		jobs:    make(chan *job, cfg.QueueSize),
		fitting: make(map[string]chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e
}

// worker drains the job queue. Each worker owns the deterministic stream
// seeded with cfg.Seed + its index, consumed only by jobs without explicit
// seeds.
func (e *Engine) worker(index int) {
	defer e.wg.Done()
	stream := dp.NewRand(e.cfg.Seed + int64(index))
	for j := range e.jobs {
		if err := j.ctx.Err(); err != nil {
			// The caller already gave up; don't burn a core on the sample.
			j.result <- jobResult{err: err}
			continue
		}
		seed := j.seed
		for seed == 0 {
			seed = stream.Int63()
		}
		e.inFlight.Add(1)
		start := time.Now()
		var src graph.RowSource
		var err error
		if j.stream {
			src, err = e.sampleSource(j.req, seed)
		} else {
			src, err = e.sampleOnce(j.req, seed)
		}
		engineSampleDur.ObserveDuration(time.Since(start))
		e.inFlight.Add(-1)
		if err != nil {
			e.failed.Add(1)
			engineSamples.With("error").Inc()
		} else {
			e.completed.Add(1)
			engineSamples.With("ok").Inc()
		}
		j.result <- jobResult{src: src, seed: seed, err: err}
	}
}

// AcceptanceCache stores fitted acceptance tables keyed by model ID. The
// registry implements it; any implementation must be safe for concurrent use
// and must drop a model's table when the model itself is evicted. Tables are
// pure functions of the model parameters (core.FitAcceptanceTable derives its
// rng from the model's content address), so a warm and a cold cache produce
// byte-identical samples for equal (model, seed) pairs.
type AcceptanceCache interface {
	// Acceptance returns the cached table for a model ID, if present. The
	// returned slice is shared and must be treated as read-only.
	Acceptance(id string) ([]float64, bool)
	// SetAcceptance stores a table for a model ID, reporting whether the
	// model is known to the cache.
	SetAcceptance(id string, table []float64) bool
}

// sampleOnce draws one synthetic graph with a concrete seed.
func (e *Engine) sampleOnce(req Request, seed int64) (*graph.Graph, error) {
	src, err := e.sampleSource(req, seed)
	if err != nil {
		return nil, err
	}
	return graph.Materialize(src), nil
}

// sampleSource draws one synthetic graph with a concrete seed, returning the
// sampler's streaming row-level view (the generator's builder with attributes
// overlaid; see core.SampleSource). The rng trace is identical to sampleOnce's
// — materialising the source reproduces sampleOnce byte for byte — so the
// materialised and streamed paths share one determinism contract per (seed,
// resolved parallelism), as well as the acceptance-table cache gating below.
func (e *Engine) sampleSource(req Request, seed int64) (graph.RowSource, error) {
	par := req.Parallelism
	if par <= 0 {
		par = e.cfg.Parallelism
	}
	model, err := e.structuralModel(req.ModelKind, req.Model.ModelName, par)
	if err != nil {
		return nil, err
	}
	opts := core.SampleOptions{Iterations: req.Iterations, Model: model}

	// Cached acceptance path: plain requests (default iterations, no model
	// override) sample with the model's pre-fitted acceptance table, turning
	// 1+Iterations structural generations into one. Tables are fitted
	// sequentially (parallelism 1) on a miss, so a table is a pure function
	// of the model parameters — the same on every host, regardless of core
	// count, engine flags, or which request happened to populate the cache.
	// Gate on the *resolved* iteration count: an explicit Iterations equal to
	// the default is the same request as omitting it, so both take the same
	// path (and return the same graph for the same seed).
	if e.cfg.Acceptance != nil && req.CacheKey != "" && req.ModelKind == "" &&
		(req.Iterations <= 0 || req.Iterations == core.DefaultSampleIterations) {
		table, err := e.acceptanceTable(req, opts)
		if err != nil {
			return nil, err
		}
		return core.SampleSourceWithTable(dp.NewRand(seed), req.Model, table, opts)
	}
	return core.SampleSource(dp.NewRand(seed), req.Model, opts)
}

// acceptanceTable returns the model's fitted acceptance table, fitting and
// caching it on a miss. Concurrent misses for the same key are
// single-flighted: the first caller fits (FitAcceptanceTable pins sequential
// generation internally, so the table cannot depend on this host's core
// count or flags), the rest block until the table lands in the cache and
// read it from there. If the leader fails, one waiter at a time retakes the
// flight, so a transient failure cannot wedge followers on a missing table.
func (e *Engine) acceptanceTable(req Request, opts core.SampleOptions) ([]float64, error) {
	for {
		if table, ok := e.cfg.Acceptance.Acceptance(req.CacheKey); ok {
			return table, nil
		}
		e.fitMu.Lock()
		if ch, ok := e.fitting[req.CacheKey]; ok {
			e.fitMu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		e.fitting[req.CacheKey] = ch
		e.fitMu.Unlock()

		engineTableFits.Inc()
		table, err := core.FitAcceptanceTable(req.Model, opts)
		if err == nil {
			e.cfg.Acceptance.SetAcceptance(req.CacheKey, table)
		}
		e.fitMu.Lock()
		delete(e.fitting, req.CacheKey)
		e.fitMu.Unlock()
		close(ch)
		return table, err
	}
}

// structuralModel resolves a model name to an implementation carrying the
// job's intra-job parallelism.
func (e *Engine) structuralModel(kind, fittedName string, parallelism int) (structural.Model, error) {
	if kind == "" {
		kind = fittedName
	}
	return structural.ByName(kind, parallelism)
}

// Sample enqueues one job and blocks until it completes, the context is
// cancelled, or the engine is closed. It is safe for concurrent use; when the
// bounded queue is full it blocks, which is the engine's backpressure
// mechanism.
func (e *Engine) Sample(ctx context.Context, req Request) (*graph.Graph, error) {
	g, _, err := e.SampleSeeded(ctx, req)
	return g, err
}

// SampleSeeded is Sample, but additionally returns the seed that actually
// drove the draw: the request's own seed, or — for unseeded jobs — the one
// drawn from the executing worker's stream. Returning it is what keeps
// auto-seeded samples reproducible after the fact.
func (e *Engine) SampleSeeded(ctx context.Context, req Request) (*graph.Graph, int64, error) {
	src, seed, err := e.run(ctx, req, false)
	if err != nil {
		return nil, 0, err
	}
	return src.(*graph.Graph), seed, nil
}

// SampleSourceSeeded is SampleSeeded returning the sampler's streaming
// row-level view instead of a packed CSR graph: for the shipped structural
// models the source is the generator's still-mutable builder with attributes
// overlaid, so an encoder can serve sorted row ranges without the final
// offsets/neighbors arrays ever being packed. The source is byte-identical
// under graph.Materialize to the graph SampleSeeded returns for the same
// (seed, resolved parallelism), and goes through the same queue, worker
// streams and acceptance-table cache. The returned source is owned by the
// caller; it is not shared with the engine after the call returns.
func (e *Engine) SampleSourceSeeded(ctx context.Context, req Request) (graph.RowSource, int64, error) {
	return e.run(ctx, req, true)
}

// run enqueues one job and blocks until it completes, the context is
// cancelled, or the engine is closed.
func (e *Engine) run(ctx context.Context, req Request, stream bool) (graph.RowSource, int64, error) {
	if req.Model == nil {
		return nil, 0, errors.New("engine: nil model in request")
	}
	j := &job{ctx: ctx, req: req, seed: req.Seed, stream: stream, result: make(chan jobResult, 1)}

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	select {
	case e.jobs <- j:
		e.mu.RUnlock()
	case <-ctx.Done():
		e.mu.RUnlock()
		return nil, 0, ctx.Err()
	}

	select {
	case res := <-j.result:
		return res.src, res.seed, res.err
	case <-ctx.Done():
		// The job may still run to completion on a worker; its result is
		// discarded via the buffered channel.
		return nil, 0, ctx.Err()
	}
}

// Stats returns a snapshot of the engine's load counters. Parallelism is
// reported resolved (what an auto-parallelism job would use right now).
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:     e.cfg.Workers,
		QueueDepth:  len(e.jobs),
		QueueCap:    cap(e.jobs),
		Parallelism: parallel.Resolve(e.cfg.Parallelism),
		InFlight:    e.inFlight.Load(),
		Completed:   e.completed.Load(),
		Failed:      e.failed.Load(),
	}
}

// Close stops accepting new jobs, drains the queue, and waits for in-flight
// jobs to finish. It is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
}
