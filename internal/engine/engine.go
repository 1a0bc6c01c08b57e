// Package engine samples synthetic graphs from fitted AGM-DP models
// concurrently. At most Config.Workers draws run at once: a caller takes one
// of the Workers slots in its own goroutine, waiting under its context while
// every slot is taken, and the draw frees its slot when it returns. Each draw
// additionally shards its structural generation — the Chung–Lu edge
// proposals of FCL samples and TriCycLe seeds — across intra-draw streams,
// goroutines started by parallel.Do that Go's scheduler runs at most
// GOMAXPROCS at a time, so throughput and per-sample latency scale without
// oversubscribing the machine.
// An optional acceptance-table cache (the registry) lets repeat samples of a
// model skip the per-sample refinement rounds.
//
// Sampling a fitted model consumes no privacy budget (post-processing), so
// the engine can serve an unbounded number of synthesis requests from one
// expensive fit. Determinism contract: a request that carries an explicit
// seed produces the same graph however loaded the engine is; a request
// without one takes the next seed of a single stream seeded with
// Config.Seed, in the order requests are admitted, and gets that seed back.
package engine

import (
	"context"
	"errors"
	"math/rand"
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
// an engine's own live load is its Stats, which /v1/healthz serves.
// Instrumentation reads clocks only — seeds are untouched.
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
	// Workers bounds how many draws run at once; values below 1 select
	// runtime.GOMAXPROCS(0). A caller that finds every slot taken waits
	// (respecting its context), which gives natural backpressure under load.
	Workers int
	// Seed seeds the one stream that unseeded requests take their seeds
	// from. Requests with explicit seeds never touch it.
	Seed int64
	// Parallelism is the number of intra-draw proposal streams handed to the
	// structural samplers: ≤ 0 means "auto" (the process default,
	// runtime.GOMAXPROCS unless overridden with parallel.SetParallelism),
	// 1 samples each draw sequentially. It is independent of Workers: Workers
	// scales throughput across draws, Parallelism scales latency within one
	// draw. Raising both does not oversubscribe the machine: every stream is
	// a goroutine, and Go's scheduler runs at most GOMAXPROCS of them at
	// once. It is deliberately not resolved at New: ≤ 0 stays
	// "auto" so a later parallel.SetParallelism call still affects this
	// engine's draws (the generators resolve at use time).
	Parallelism int
	// Acceptance, when non-nil, caches per-model acceptance tables so
	// draws skip the per-sample refinement rounds; see the AcceptanceCache
	// interface. The registry satisfies it.
	Acceptance AcceptanceCache
}

// Request describes one draw.
type Request struct {
	// Model is the fitted model to sample from. Required.
	Model *core.FittedModel
	// Seed, when non-zero, makes the draw fully deterministic: equal seeds
	// (at equal engine Parallelism) give byte-identical graphs. Zero takes
	// the next seed of the engine's stream.
	Seed int64
	// Iterations is the number of acceptance-probability refinement rounds;
	// zero selects core.DefaultSampleIterations.
	Iterations int
	// ModelKind optionally overrides the structural model ("tricycle", "fcl",
	// "tcl"); empty uses the model the parameters were fitted for.
	ModelKind string
	// Parallelism overrides the engine's intra-draw stream count for this
	// draw only; 0 keeps the engine default, 1 forces sequential sampling.
	// The resolved value is part of the determinism contract: equal seeds
	// give equal graphs only at equal parallelism.
	Parallelism int
	// CacheKey, when non-empty, identifies the model (its registry ID) for
	// acceptance-table caching. It is consulted only when the engine has an
	// Acceptance cache and the request uses default Iterations; see
	// AcceptanceCache.
	CacheKey string
}

// Stats is a point-in-time snapshot of engine load, served by /v1/healthz.
type Stats struct {
	Workers int `json:"workers"`
	// QueueDepth counts callers waiting for a slot.
	QueueDepth  int   `json:"queue_depth"`
	Parallelism int   `json:"parallelism"`
	InFlight    int64 `json:"in_flight"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
}

// Engine bounds and runs concurrent draws. Construct with New; the zero
// value is not usable.
type Engine struct {
	cfg Config
	// slots holds one token per running draw; its capacity is Workers.
	slots chan struct{}
	// waiting counts callers blocked on a slot.
	waiting atomic.Int64

	// mu guards closed and seeds. Every draw admitted before Close is
	// counted in draws, so Close can wait for it.
	mu     sync.Mutex
	closed bool
	seeds  *rand.Rand
	draws  sync.WaitGroup

	completed atomic.Int64
	failed    atomic.Int64
	inFlight  atomic.Int64

	// fitMu/fitting single-flight the acceptance-table fits: when several
	// draws miss the cache for the same cold model at once, one fits and
	// the rest wait for its result instead of burning a structural
	// generation each on identical work (tables are pure functions of the
	// model, so every duplicate would have produced the same bytes).
	fitMu   sync.Mutex
	fitting map[string]chan struct{}
}

// New builds an engine with cfg.Workers draw slots. Close it to wait for
// the draws still running.
func New(cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		seeds:   dp.NewRand(cfg.Seed),
		fitting: make(map[string]chan struct{}),
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

// sampleSource draws one synthetic graph with a concrete seed, returning the
// sampler's streaming row-level view (the generator's builder with attributes
// overlaid; see core.SampleSource). Materialising the source gives the
// packed graph, so the materialised and streamed paths share one determinism
// contract per (seed, resolved parallelism), as well as the
// acceptance-table cache gating below.
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
// draw's intra-draw parallelism.
func (e *Engine) structuralModel(kind, fittedName string, parallelism int) (structural.Model, error) {
	if kind == "" {
		kind = fittedName
	}
	return structural.ByName(kind, parallelism)
}

// Sample draws one graph, blocking until the draw completes, the context is
// cancelled, or the engine is closed. It is safe for concurrent use; while
// every slot is taken it waits, which is the engine's backpressure
// mechanism.
func (e *Engine) Sample(ctx context.Context, req Request) (*graph.Graph, error) {
	g, _, err := e.SampleSeeded(ctx, req)
	return g, err
}

// SampleSeeded is Sample, but additionally returns the seed that actually
// drove the draw: the request's own seed, or — for unseeded requests — the
// one taken from the engine's stream. Returning it is what keeps
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
// (seed, resolved parallelism), and goes through the same slots, seed stream
// and acceptance-table cache. The returned source is owned by the caller; it
// is not shared with the engine after the call returns.
func (e *Engine) SampleSourceSeeded(ctx context.Context, req Request) (graph.RowSource, int64, error) {
	return e.run(ctx, req, true)
}

// run admits one draw, waits for a slot and blocks until the draw completes
// or the context is cancelled. The draw itself runs on its own goroutine, so
// a caller whose context ends mid-draw gets its error at once; the draw runs
// on and frees its slot when it returns.
func (e *Engine) run(ctx context.Context, req Request, stream bool) (graph.RowSource, int64, error) {
	if req.Model == nil {
		return nil, 0, errors.New("engine: nil model in request")
	}
	seed, err := e.admit(req.Seed)
	if err != nil {
		return nil, 0, err
	}
	e.waiting.Add(1)
	select {
	case e.slots <- struct{}{}:
		e.waiting.Add(-1)
	case <-ctx.Done():
		e.waiting.Add(-1)
		e.draws.Done()
		return nil, 0, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		// The caller already gave up; don't burn a core on the sample.
		e.release()
		return nil, 0, err
	}

	var (
		src     graph.RowSource
		drawErr error
	)
	done := make(chan struct{})
	go func() {
		defer e.release()
		src, drawErr = e.draw(req, seed, stream)
		close(done)
	}()
	select {
	case <-done:
		return src, seed, drawErr
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// admit counts one draw in unless the engine is closed, resolving an
// unseeded request's seed from the engine's stream.
func (e *Engine) admit(seed int64) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	for seed == 0 {
		seed = e.seeds.Int63()
	}
	e.draws.Add(1)
	return seed, nil
}

// release frees an admitted draw's slot.
func (e *Engine) release() {
	<-e.slots
	e.draws.Done()
}

// draw samples one graph with a concrete seed, materialised unless stream
// is set, and records its duration and outcome.
func (e *Engine) draw(req Request, seed int64, stream bool) (graph.RowSource, error) {
	e.inFlight.Add(1)
	start := time.Now()
	src, err := e.sampleSource(req, seed)
	if err == nil && !stream {
		src = graph.Materialize(src)
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
	return src, err
}

// Stats returns a snapshot of the engine's load counters. Parallelism is
// reported resolved (what an auto-parallelism draw would use right now).
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:     e.cfg.Workers,
		QueueDepth:  int(e.waiting.Load()),
		Parallelism: parallel.Resolve(e.cfg.Parallelism),
		InFlight:    e.inFlight.Load(),
		Completed:   e.completed.Load(),
		Failed:      e.failed.Load(),
	}
}

// Close refuses new draws and waits for every admitted one — running or
// still waiting for a slot — to finish. It is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.draws.Wait()
}
