package jobs

// Fit jobs: the asynchronous counterpart of the service's synchronous fit.
// A fit job runs the full (optionally differentially private) fitting
// pipeline in the background — its measurement passes sharded across the
// process-default worker count — registers the fitted model in the model
// store, and concurrently pre-fits the model's acceptance table so the first
// sample of the new model pays no refinement cost. The job's terminal Info
// carries the fitted model's content-addressed ID.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"agmdp/internal/core"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/structural"
)

// FitSpec describes one asynchronous model fit.
type FitSpec struct {
	// Graph is the input graph to fit. Required. Graphs are immutable, so
	// the manager shares the caller's instance.
	Graph *graph.Graph
	// GraphID optionally records the graph store ID the input came from; it
	// is echoed in the job's Info for listings.
	GraphID string
	// Epsilon is the total privacy budget; 0 fits the exact (non-private)
	// baseline parameters.
	Epsilon float64
	// TruncationK is the edge-truncation parameter for Θ̃F; zero selects the
	// paper's heuristic k = n^{1/3}.
	TruncationK int
	// ModelKind names the structural model ("tricycle", "fcl", "tcl"); empty
	// selects TriCycLe.
	ModelKind string
	// Seed seeds the private fit's noise draws; fits with equal seeds and
	// inputs are bit-identical at every worker count.
	Seed int64
	// OnDone, when non-nil, is invoked exactly once as the job reaches a
	// terminal status, with the registered model's content-addressed ID —
	// empty when the fit was cancelled or failed before any model landed in
	// the model store. With an ID it runs before the terminal status is
	// visible; with an empty ID, after the terminal record is committed.
	// The tenancy layer uses it to refund a pre-charged privacy budget when
	// a fit released nothing (empty ID) and to record the submitting tenant
	// as the model's owner otherwise; a fit cancelled only after
	// registration still reports its ID, because its model — and
	// therefore its privacy spend — is real.
	OnDone func(modelID string)
}

// SubmitFit accepts a fit job and starts it in the background, returning its
// ID. The manager must have been constructed with a ModelStore.
func (m *Manager) SubmitFit(spec FitSpec) (string, error) {
	if spec.Graph == nil {
		return "", errors.New("jobs: nil graph in fit spec")
	}
	if m.opts.Models == nil {
		return "", errors.New("jobs: fit job submitted but the manager has no model store")
	}
	if spec.Epsilon < 0 {
		return "", fmt.Errorf("jobs: negative epsilon %v (use 0 for a non-private baseline fit)", spec.Epsilon)
	}
	if _, err := structural.ByName(spec.ModelKind, 0); err != nil {
		return "", err
	}

	return m.register(&job{fit: spec}, Info{Kind: KindFit, GraphID: spec.GraphID, Count: 1}, m.runFit)
}

// runFit executes one fit job end to end. The job stays in StatusQueued
// until it acquires one of the manager's bounded fit slots (so listings show
// exactly which fits are waiting); once running, the context is threaded
// through the whole fit pipeline, so cancellation — DELETE /v1/jobs/{id} or
// manager shutdown — aborts a mid-pipeline fit at the next stage boundary
// rather than burning workers to completion.
func (m *Manager) runFit(ctx context.Context, j *job) {
	defer m.wg.Done()
	defer j.cancel()

	j.mu.Lock()
	spec := j.fit
	j.mu.Unlock()

	// Acquire a fit slot; the job is visibly "queued" while it waits.
	// Cancellation while queued finishes the job without ever starting the
	// pipeline.
	select {
	case m.fitSem <- struct{}{}:
		defer func() { <-m.fitSem }()
	case <-ctx.Done():
		m.finishFit(j, ctx, nil, true, spec.OnDone)
		return
	}

	j.mu.Lock()
	j.info.Status = StatusRunning
	j.info.StartedAt = m.opts.Clock()
	j.mu.Unlock()

	result, failed := m.fitOnce(ctx, spec, j)
	m.finishFit(j, ctx, result, failed, spec.OnDone)
}

// finishFit moves a fit job to its terminal state and fires the OnDone
// callback. A fit that registered a model fires it first, so the tenancy
// layer has granted the model before any client can see the job finish and
// ask for the model. A fit that released nothing fires it after the terminal
// record is committed, so the refund it triggers can never race a restart
// that still shows the job running.
func (m *Manager) finishFit(j *job, ctx context.Context, result *FitResult, failed bool, onDone func(string)) {
	var modelID string
	if result != nil {
		modelID = result.ModelID
	}
	if onDone != nil && modelID != "" {
		onDone(modelID)
	}
	m.finish(j, func(info *Info) {
		switch {
		case ctx.Err() != nil:
			info.Status = StatusCancelled
			// Cancellation that lands after the model was already
			// registered must not orphan it: keep the result in the
			// cancelled record so the model ID stays discoverable.
			if modelID != "" {
				info.Fit = result
				info.ModelID = modelID
			}
		case failed:
			info.Status = StatusFailed
			info.Failed = 1
			info.Fit = result
		default:
			info.Status = StatusDone
			info.Completed = 1
			info.Fit = result
			info.ModelID = modelID
		}
	})
	if onDone != nil && modelID == "" {
		onDone("")
	}
}

// fitOnce runs the fit pipeline and registers the result, reporting the
// outcome and whether it failed. A cancelled context yields (nil, true) —
// the caller maps that to StatusCancelled — and never registers the model.
// Stage durations accumulate on j's timer: the core pipeline's stages via
// Config.Observe, plus "table_warm" and "store" measured here.
func (m *Manager) fitOnce(ctx context.Context, spec FitSpec, j *job) (*FitResult, bool) {
	if ctx.Err() != nil {
		return nil, true
	}
	model, err := structural.ByName(spec.ModelKind, 0)
	if err != nil {
		return &FitResult{Error: err.Error()}, true
	}

	// FitModel is the same entry point the synchronous handler uses, so the
	// async path cannot drift from it. The job context rides through the fit
	// pipeline: cancellation aborts at the next stage boundary (never
	// mid-noise-draw, so a fit that completes is bit-identical to an
	// uncancellable one).
	fitted, err := core.FitModel(ctx, dp.NewRand(spec.Seed), spec.Graph, core.Config{
		Epsilon:     spec.Epsilon,
		TruncationK: spec.TruncationK,
		Model:       model,
		Observe: func(stage string, d time.Duration) {
			recordStage(j, KindFit, stage, d)
		},
	})
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, true
	}
	if err != nil {
		return &FitResult{Error: err.Error()}, true
	}
	if ctx.Err() != nil {
		// Cancelled mid-fit: drop the result rather than registering a model
		// the client asked to abandon. (A cancellation that slips in during
		// registration below is handled by the caller, which keeps the
		// registered ID in the cancelled record.)
		return nil, true
	}

	// Warm the model's acceptance table so its first default-shaped sample
	// skips the refinement rounds. The table is a pure function of the model
	// parameters, so it is fitted while the store serializes and persists
	// the model. Table failures only lose the warm-up, never the fit.
	var table []float64
	tablec := make(chan struct{})
	go func() {
		defer close(tablec)
		start := time.Now()
		table, _ = core.FitAcceptanceTable(fitted, core.SampleOptions{})
		recordStage(j, KindFit, "table_warm", time.Since(start))
	}()
	start := time.Now()
	id, err := m.opts.Models.Put(fitted)
	recordStage(j, KindFit, "store", time.Since(start))
	<-tablec
	if err != nil {
		return &FitResult{Error: fmt.Sprintf("storing fitted model: %v", err)}, true
	}
	if table != nil {
		m.opts.Models.SetAcceptance(id, table)
	}
	return &FitResult{
		ModelID:   id,
		ModelName: fitted.ModelName,
		Epsilon:   fitted.Epsilon,
	}, false
}
