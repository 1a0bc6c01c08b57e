// Package jobs provides a typed asynchronous job manager for the synthesis
// service. Three job kinds share one lifecycle, listing and retention surface:
//
//   - sample jobs draw a batch of synthetic graphs from a fitted model
//     through the engine (the original job type),
//   - fit jobs run a full (optionally differentially private) model fit and
//     register the result in a model store, so huge fits return a job ID
//     instead of holding an HTTP connection open for minutes, and
//   - evaluate jobs measure the paper's utility metrics of synthetic graphs
//     against their original — either one stored pair, or fresh samples drawn
//     from a fitted model — at no privacy cost (pure post-processing).
//
// The synchronous endpoints hold a connection open for the whole operation,
// which caps the work at whatever a client (and its proxies) will tolerate as
// one request. A job instead is submitted once, returns an ID immediately,
// and runs in the background; clients poll for queued/running/done progress
// and results, and can cancel mid-flight. Sampled graphs are summarised in
// the result list and — when requested — stored into the graph store; fitted
// models land in the model store and the job reports their content-addressed
// ID (with the model's acceptance table pre-fitted concurrently, so the
// first sample pays no refinement cost).
//
// Determinism: a sample job with an explicit base seed s draws sample i with
// seed s+i, so a batch is exactly as reproducible as the equivalent sequence
// of synchronous requests; unseeded jobs take per-sample seeds from the
// engine's seed stream and report them in the results. A fit job with
// seed s produces the same model as the synchronous fit at seed s — the fit
// pipeline is bit-identical for every worker count.
//
// Finished jobs are retained (bounded, oldest evicted first) so clients can
// fetch results after completion; with Options.Dir set, finished-job
// metadata is additionally persisted as JSON and reloaded on construction,
// so clients can pick up results across service restarts. Cancellation and
// retention both drop a job's results, never its running work's correctness.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"agmdp/internal/atomicfile"
	"agmdp/internal/core"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/obs"
	"agmdp/internal/parallel"
	"agmdp/internal/structural"
)

// jobStageDur aggregates per-stage wall times across all jobs on the
// process-wide default registry; the per-job breakdown additionally lands in
// each finished job's Info.Stages. Stage names: fit jobs report the core
// pipeline's "attrs"/"correlations"/"degrees"/"triangles" plus "table_warm"
// and "store"; sample jobs report "generate", "analyze" and "store".
var jobStageDur = obs.Default().HistogramVec("agmdp_jobs_stage_duration_seconds",
	"Wall-clock duration of job pipeline stages, by job kind and stage.",
	nil, "kind", "stage")

// ErrClosed is returned by Submit after Close has been called.
var ErrClosed = errors.New("jobs: manager closed")

// Kind discriminates the job types the manager runs.
type Kind string

const (
	// KindSample draws a batch of synthetic graphs from a fitted model.
	KindSample Kind = "sample"
	// KindFit fits a model from a graph and registers it in the model store.
	KindFit Kind = "fit"
	// KindEvaluate measures the utility of synthetic graphs against an
	// original graph (Tables 2–5 error columns).
	KindEvaluate Kind = "evaluate"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued means the job is accepted but no sample has started.
	StatusQueued Status = "queued"
	// StatusRunning means at least one sample is in flight.
	StatusRunning Status = "running"
	// StatusDone means the job finished with at least one successful sample.
	StatusDone Status = "done"
	// StatusFailed means every sample failed.
	StatusFailed Status = "failed"
	// StatusCancelled means the job was cancelled before finishing.
	StatusCancelled Status = "cancelled"
)

// Finished reports whether the status is terminal.
func (s Status) Finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// sampleFanOut is how many samples of one job are in flight at once; they
// still wait for the engine's own slots.
const sampleFanOut = 4

// Draws describes a batch of draws from a fitted model, the part sample and
// evaluate jobs share.
type Draws struct {
	// Model is the fitted model to sample from.
	Model *core.FittedModel
	// ModelID is the registry ID of Model; it keys the engine's
	// acceptance-table cache and is echoed in job listings.
	ModelID string
	// Count is the number of samples to draw (>= 1).
	Count int
	// Seed, when non-zero, seeds sample i with Seed+i, making the whole
	// batch deterministic. Zero lets each sample take the engine's next
	// seed.
	Seed int64
	// Iterations, ModelKind and Parallelism are passed through to each
	// engine request; see engine.Request.
	Iterations  int
	ModelKind   string
	Parallelism int
}

// Check reports whether the batch can run as described: at least one
// sample, a parallelism in [0, parallel.MaxWorkers], iterations in
// [0, core.MaxSampleIterations], a known model kind, and a seed range that
// does not cross zero. The two bounds cap what one draw may allocate and how
// long it holds its engine slot. Sample i runs with seed Seed+i, and seed 0
// means "unseeded" to the engine, so a negative base whose range crosses
// zero would silently turn one sample of a deterministic batch into a random
// draw. Check does not look at Model.
func (d Draws) Check() error {
	if d.Count < 1 {
		return fmt.Errorf("sample count %d, want >= 1", d.Count)
	}
	if d.Parallelism < 0 || d.Parallelism > parallel.MaxWorkers {
		return fmt.Errorf("parallelism %d outside [0, %d]", d.Parallelism, parallel.MaxWorkers)
	}
	if d.Iterations < 0 || d.Iterations > core.MaxSampleIterations {
		return fmt.Errorf("iterations %d outside [0, %d]", d.Iterations, core.MaxSampleIterations)
	}
	if d.Seed < 0 && d.Seed+int64(d.Count) > 0 {
		return fmt.Errorf("seed range [%d, %d] crosses 0 (sample i runs with seed seed+i; 0 means unseeded)",
			d.Seed, d.Seed+int64(d.Count)-1)
	}
	if d.ModelKind != "" {
		if _, err := structural.ByName(d.ModelKind, 0); err != nil {
			return err
		}
	}
	return nil
}

// Request builds the engine request of sample i.
func (d Draws) Request(i int) engine.Request {
	var seed int64
	if d.Seed != 0 {
		seed = d.Seed + int64(i)
	}
	return engine.Request{
		Model:       d.Model,
		Seed:        seed,
		Iterations:  d.Iterations,
		ModelKind:   d.ModelKind,
		Parallelism: d.Parallelism,
		CacheKey:    d.ModelID,
	}
}

// Spec describes one batch sampling job.
type Spec struct {
	Draws
	// Store, when true, stores every sampled graph into the manager's graph
	// store and records its content-addressed ID in the sample result.
	Store bool
	// OnStored, when non-nil, is invoked once per graph the job stores, with
	// its content-addressed ID. The tenancy layer uses it to record the
	// submitting tenant as the stored graph's owner.
	OnStored func(graphID string)
}

// SampleResult is the outcome of one sample within a job.
type SampleResult struct {
	Index     int    `json:"index"`
	Seed      int64  `json:"seed"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Triangles int64  `json:"triangles"`
	GraphID   string `json:"graph_id,omitempty"`
	Error     string `json:"error,omitempty"`
}

// FitResult is the outcome of a fit job.
type FitResult struct {
	// ModelID is the content-addressed registry ID of the fitted model.
	ModelID string `json:"model_id,omitempty"`
	// ModelName is the structural model the parameters were fitted for.
	ModelName string `json:"model_name,omitempty"`
	// Epsilon echoes the privacy budget spent (0 = non-private baseline).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Error carries the failure message of a failed fit.
	Error string `json:"error,omitempty"`
}

// Info is a point-in-time snapshot of one job. For sample jobs ModelID is
// the input model being sampled; for fit jobs the fitted model's ID arrives
// in Fit.ModelID (and is mirrored into ModelID on success, so listings show
// the interesting ID for either kind).
type Info struct {
	ID        string     `json:"id"`
	Kind      Kind       `json:"kind"`
	ModelID   string     `json:"model_id,omitempty"`
	GraphID   string     `json:"graph_id,omitempty"`
	Status    Status     `json:"status"`
	Count     int        `json:"count"`
	Completed int        `json:"completed"`
	Failed    int        `json:"failed"`
	Stored    int        `json:"stored,omitempty"`
	Fit       *FitResult `json:"fit,omitempty"`
	// Eval carries an evaluate job's utility measurements; it fills in as
	// samples complete, so polls observe partial results, and persists with
	// the finished record.
	Eval *EvalResult `json:"eval,omitempty"`
	// Stages breaks the job's wall-clock time into pipeline stages
	// (first-seen order; repeated stages accumulate). It is populated when
	// the job reaches a terminal status and persisted with the finished
	// record, so restarted services still report where a job's time went.
	Stages     []obs.Stage `json:"stages,omitempty"`
	CreatedAt  time.Time   `json:"created_at"`
	StartedAt  time.Time   `json:"started_at,omitzero"`
	FinishedAt time.Time   `json:"finished_at,omitzero"`
}

// ModelStore receives the models produced by fit jobs and caches their
// acceptance tables. registry.Registry implements it.
type ModelStore interface {
	// Put stores a fitted model and returns its content-addressed ID.
	Put(m *core.FittedModel) (string, error)
	// SetAcceptance caches a model's fitted acceptance table, reporting
	// whether the model is resident.
	SetAcceptance(id string, table []float64) bool
}

// Options configures a Manager.
type Options struct {
	// Engine executes the samples. Required.
	Engine *engine.Engine
	// Store receives sampled graphs for jobs with Spec.Store set. Jobs with
	// Store set are rejected when nil.
	Store *graphstore.Store
	// Models receives the models produced by fit jobs. Fit jobs are rejected
	// when nil.
	Models ModelStore
	// Dir, when non-empty, persists finished-job metadata (Info plus sample
	// results) as Dir/<id>.json and reloads it on New, so job results survive
	// service restarts. Running jobs are never persisted; a job killed
	// mid-run simply has no record after a restart unless its shutdown
	// cancellation completed (Close cancels running jobs, and cancelled jobs
	// persist like any finished job).
	Dir string
	// Retain bounds how many finished jobs are kept for result pickup;
	// beyond it the oldest finished job is dropped. Values below 1 select 64.
	Retain int
	// MaxConcurrentFits bounds how many fit jobs run their pipelines at
	// once; fits beyond the bound wait in StatusQueued (visible in listings)
	// until a slot frees. Fit pipelines fan out internally across the
	// process-default worker count, so a handful of concurrent fits already
	// saturates the machine — unbounded admission only added memory pressure and tail
	// latency. Values below 1 select GOMAXPROCS, floored at 2 so a queued
	// fit can always overlap another's sequential stages.
	MaxConcurrentFits int
	// SampleTimeout bounds each individual sample; zero means no per-sample
	// deadline.
	SampleTimeout time.Duration
	// Clock overrides the time source used for the Info timestamps (tests).
	Clock func() time.Time
}

// job is the manager-internal state of one submitted (or reloaded) job.
type job struct {
	mu      sync.Mutex
	info    Info
	results []SampleResult
	spec    Spec
	fit     FitSpec
	eval    EvalSpec
	stages  *obs.StageTimer // nil for jobs reloaded from disk
	cancel  context.CancelFunc
	done    chan struct{}
}

// infoSnapshot returns a copy of j.info that is safe to use after j.mu is
// released. The Eval result is the one Info field that keeps mutating while
// the job runs (samples append, the average is recomputed), so it is
// deep-copied; Fit is only ever set at terminal time and the per-sample
// Metrics pointers are write-once. Callers hold j.mu.
func (j *job) infoSnapshot() Info {
	info := j.info
	if info.Eval != nil {
		ev := *info.Eval
		ev.Samples = append([]EvalSample(nil), ev.Samples...)
		info.Eval = &ev
	}
	return info
}

// recordStage accumulates one stage duration on a job's timer and on the
// process-wide per-stage histogram.
func recordStage(j *job, kind Kind, stage string, d time.Duration) {
	j.stages.Add(stage, d)
	jobStageDur.With(string(kind), stage).ObserveDuration(d)
}

// Manager runs asynchronous sample and fit jobs. Construct with New; the
// zero value is not usable.
type Manager struct {
	opts Options

	// fitSem is the bounded fit-worker pool: one slot per concurrently
	// running fit pipeline (Options.MaxConcurrentFits).
	fitSem chan struct{}

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listings
	finished []string // completion order, for bounded retention
	seq      int
	closed   bool
	warnings []string
	wg       sync.WaitGroup
}

// New builds a manager over an engine (and, optionally, a graph store and a
// model store). With Options.Dir set, previously persisted finished jobs are
// reloaded so their results remain fetchable; files that cannot be read or
// decoded are skipped and reported via Warnings.
func New(opts Options) (*Manager, error) {
	if opts.Engine == nil {
		return nil, errors.New("jobs: nil engine")
	}
	if opts.Retain < 1 {
		opts.Retain = 64
	}
	if opts.MaxConcurrentFits < 1 {
		opts.MaxConcurrentFits = max(2, runtime.GOMAXPROCS(0))
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	m := &Manager{
		opts:   opts,
		jobs:   make(map[string]*job),
		fitSem: make(chan struct{}, opts.MaxConcurrentFits),
	}
	if opts.Dir != "" {
		if err := m.loadDir(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Warnings reports persisted-job files skipped on load and persistence
// failures encountered at job completion. Operators should surface these: a
// skipped or unwritten file is a job whose results will not survive a
// restart.
func (m *Manager) Warnings() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.warnings))
	copy(out, m.warnings)
	return out
}

// Submit accepts a job and starts it in the background, returning its ID.
func (m *Manager) Submit(spec Spec) (string, error) {
	if spec.Model == nil {
		return "", errors.New("jobs: nil model in spec")
	}
	if err := spec.Check(); err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	if spec.Store && m.opts.Store == nil {
		return "", errors.New("jobs: store requested but the manager has no graph store")
	}

	j := &job{spec: spec, results: make([]SampleResult, spec.Count)}
	return m.register(j, Info{Kind: KindSample, ModelID: spec.ModelID, Count: spec.Count}, m.run)
}

// register issues the next job ID to j, durably recording the ID high-water
// mark first, stamps info (kind and resource fields filled by the caller)
// as j's queued Info, indexes the job and starts run in the background. A
// closed manager, or a mark that cannot be made durable, refuses the job
// and registers nothing.
func (m *Manager) register(j *job, info Info, run func(context.Context, *job)) (string, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	m.seq++
	if err := m.persistSeqLocked(); err != nil {
		m.mu.Unlock()
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	info.ID = fmt.Sprintf("job-%06d", m.seq)
	info.Status = StatusQueued
	info.CreatedAt = m.opts.Clock()
	j.info = info
	j.stages = obs.NewStageTimer()
	j.cancel = cancel
	j.done = make(chan struct{})
	m.jobs[info.ID] = j
	m.order = append(m.order, info.ID)
	m.wg.Add(1)
	m.mu.Unlock()

	go run(ctx, j)
	return info.ID, nil
}

// run executes one job: sampleFanOut workers pull sample indices and drive
// the engine, then the terminal status is decided and retention trimmed.
func (m *Manager) run(ctx context.Context, j *job) {
	defer m.wg.Done()
	defer j.cancel()

	j.mu.Lock()
	j.info.Status = StatusRunning
	j.info.StartedAt = m.opts.Clock()
	count := j.spec.Count
	j.mu.Unlock()

	indices := make(chan int)
	var workers sync.WaitGroup
	for w := 0; w < min(sampleFanOut, count); w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range indices {
				m.runSample(ctx, j, i)
			}
		}()
	}
feed:
	for i := 0; i < count; i++ {
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(indices)
	workers.Wait()

	m.finish(j, func(info *Info) {
		switch {
		case ctx.Err() != nil:
			info.Status = StatusCancelled
		case info.Failed == count:
			info.Status = StatusFailed
		default:
			info.Status = StatusDone
		}
	})
}

// finish moves a job into its terminal state (chosen by decide), persists
// the finished record when a directory is configured, signals waiters, and
// applies the retention bound.
func (m *Manager) finish(j *job, decide func(info *Info)) {
	j.mu.Lock()
	decide(&j.info)
	j.info.FinishedAt = m.opts.Clock()
	if j.stages != nil {
		j.info.Stages = j.stages.Stages()
	}
	rec := persistedJob{Info: j.infoSnapshot(), Results: append([]SampleResult(nil), j.results...)}
	id := j.info.ID
	j.mu.Unlock()
	// Waiters are signalled at the end of finish, after the persisted record
	// is committed: a client that saw Wait return (or polled a terminal
	// status) may restart the service immediately and must still find the
	// job's record on disk.
	defer close(j.done)

	// Stage the record (written and fsync'd) before taking the manager lock:
	// the disk I/O must not stall every jobs API call behind m.mu on slow
	// storage. Only the commit, a rename and a directory fsync, happens
	// under the lock.
	var staged *atomicfile.Staged
	var perr error
	if m.opts.Dir != "" {
		staged, perr = atomicfile.Stage(m.opts.Dir, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(rec)
		})
	}

	m.mu.Lock()
	// The job may already have been removed by a cancel-and-delete; in that
	// case nothing is committed either (the staged file is discarded below),
	// so a deleted job cannot resurrect from disk after a restart.
	// Committing under the manager lock keeps the rename ordered against
	// concurrent removals.
	if _, ok := m.jobs[id]; ok {
		if staged != nil {
			perr = staged.Commit(filepath.Join(m.opts.Dir, id+".json"))
		}
		if perr != nil {
			// Completion is asynchronous — no caller can receive this
			// error, and Warnings() is typically read only at startup — so
			// log it too: an unwritten record is a job whose results
			// silently will not survive a restart.
			slog.Error("jobs: persisting finished job failed", "job", id, "error", perr)
			m.addWarningLocked(fmt.Sprintf("%s: %v", id, perr))
		}
		m.finished = append(m.finished, id)
		for len(m.finished) > m.opts.Retain {
			m.removeLocked(m.finished[0])
		}
	}
	m.mu.Unlock()
	staged.Discard() // job deleted while staging; a no-op after Commit
}

// maxWarnings bounds the retained warning strings: a persistently failing
// disk would otherwise grow the slice by one entry per finished job for the
// life of the process.
const maxWarnings = 100

// addWarningLocked appends a warning, suppressing beyond the bound (with one
// marker entry so the truncation is visible). Callers hold m.mu.
func (m *Manager) addWarningLocked(s string) {
	if len(m.warnings) < maxWarnings {
		m.warnings = append(m.warnings, s)
		return
	}
	if len(m.warnings) == maxWarnings {
		m.warnings = append(m.warnings, "further warnings suppressed (see logs)")
	}
}

// sampleContext bounds one sample by Options.SampleTimeout, when set.
func (m *Manager) sampleContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.opts.SampleTimeout > 0 {
		return context.WithTimeout(ctx, m.opts.SampleTimeout)
	}
	return context.WithCancel(ctx)
}

// runSample draws sample i of a job and records its result.
func (m *Manager) runSample(ctx context.Context, j *job, i int) {
	sctx, cancel := m.sampleContext(ctx)
	defer cancel()
	start := time.Now()
	src, usedSeed, err := m.opts.Engine.SampleSourceSeeded(sctx, j.spec.Request(i))
	recordStage(j, KindSample, "generate", time.Since(start))
	res := SampleResult{Index: i, Seed: usedSeed}
	var stored bool
	if err == nil && j.spec.Store {
		// Store straight from the sampler's row source: the snapshot is
		// encoded incrementally (streamed to the store file while hashed), so
		// store-back never builds a whole-snapshot buffer. The content ID is
		// the same the materialised graph would get — the encoding is
		// canonical.
		start = time.Now()
		res.GraphID, err = m.opts.Store.PutSource(src)
		recordStage(j, KindSample, "store", time.Since(start))
		stored = err == nil
		if stored && j.spec.OnStored != nil {
			j.spec.OnStored(res.GraphID)
		}
	}
	if err != nil {
		res.Error = err.Error()
	} else {
		start = time.Now()
		g := graph.Materialize(src)
		res.Nodes = g.NumNodes()
		res.Edges = g.NumEdges()
		res.Triangles = g.Triangles()
		recordStage(j, KindSample, "analyze", time.Since(start))
	}

	j.mu.Lock()
	j.results[i] = res
	if err != nil {
		j.info.Failed++
	} else {
		j.info.Completed++
	}
	if stored {
		j.info.Stored++
	}
	j.mu.Unlock()
}

// Get returns a snapshot of one job and a copy of its per-sample results
// (slots whose samples have not finished are zero-valued).
func (m *Manager) Get(id string) (Info, []SampleResult, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Info{}, nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	results := make([]SampleResult, len(j.results))
	copy(results, j.results)
	return j.infoSnapshot(), results, true
}

// List returns a snapshot of every retained job, oldest submission first.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ids := make([]string, len(m.order))
	copy(ids, m.order)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Info, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, j.infoSnapshot())
		j.mu.Unlock()
	}
	return out
}

// Cancel cancels a running job or removes a finished one, reporting whether
// the job was known. A cancelled job transitions to StatusCancelled and is
// retained for result pickup like any other finished job.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	finished := j.info.Status.Finished()
	j.mu.Unlock()
	if finished {
		m.mu.Lock()
		m.removeLocked(id)
		m.mu.Unlock()
		return true
	}
	j.cancel()
	return true
}

// removeLocked drops a job from every index (and its persisted record, when
// persistence is enabled). Callers hold m.mu.
func (m *Manager) removeLocked(id string) {
	delete(m.jobs, id)
	m.removePersisted(id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	for i, v := range m.finished {
		if v == id {
			m.finished = append(m.finished[:i], m.finished[i+1:]...)
			break
		}
	}
}

// AcquireFitSlot blocks for one of the manager's bounded fit slots
// (Options.MaxConcurrentFits) — the same pool the asynchronous fit jobs
// queue on — until one frees or the context expires. The serving layer
// routes synchronous fits through it so sync traffic cannot defeat the fit
// admission bound. Callers that acquired a slot must release it with
// ReleaseFitSlot.
func (m *Manager) AcquireFitSlot(ctx context.Context) error {
	select {
	case m.fitSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReleaseFitSlot returns a slot taken with AcquireFitSlot.
func (m *Manager) ReleaseFitSlot() { <-m.fitSem }

// Wait blocks until the job reaches a terminal status or the context
// expires. It reports false for unknown jobs.
func (m *Manager) Wait(ctx context.Context, id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-j.done:
		return true
	case <-ctx.Done():
		return false
	}
}

// Close cancels every running job, waits for them to wind down, and rejects
// further submissions. It is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	m.wg.Wait()
}
