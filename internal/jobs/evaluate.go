package jobs

// Evaluate jobs: serving-side utility evaluation. An evaluate job measures
// the paper's Table 2–5 error columns of synthetic graphs against an original
// graph — either one stored synthetic graph (pair mode), or Count fresh
// samples drawn from a fitted model (model mode), with the per-sample rows
// and their running average filling into the job's Info as they complete.
// Evaluation reads a fitted model and graphs that already exist; it is pure
// post-processing of DP outputs and spends no privacy budget.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"agmdp/internal/experiments"
	"agmdp/internal/graph"
)

// EvalSpec describes one asynchronous utility evaluation.
type EvalSpec struct {
	// Source is the original graph the synthetic output is measured against.
	// Required. Graphs are immutable, so the manager shares the caller's
	// instance.
	Source *graph.Graph
	// SourceID optionally records the graph store ID of Source; it is echoed
	// in the job's Info and result.
	SourceID string

	// Synthetic selects pair mode: measure this one stored graph against
	// Source. Exactly one of Synthetic and Model must be set.
	Synthetic *graph.Graph
	// SyntheticID optionally records the graph store ID of Synthetic.
	SyntheticID string

	// Draws selects model mode when its Model is set: draw Count samples
	// from that fitted model, seeded exactly like a sample job so an
	// evaluation is reproducible against the batch it scores, and measure
	// each against Source. Pair mode always evaluates exactly one graph.
	Draws
}

// EvalSample is the outcome of one evaluated sample within a job.
type EvalSample struct {
	Index     int    `json:"index"`
	Seed      int64  `json:"seed,omitempty"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
	Triangles int64  `json:"triangles"`
	Error     string `json:"error,omitempty"`
	// Metrics holds the utility error columns of this sample against the
	// source graph; nil when the sample failed.
	Metrics *experiments.GraphMetrics `json:"metrics,omitempty"`
}

// EvalResult is the outcome of an evaluate job.
type EvalResult struct {
	// SourceGraphID is the graph store ID of the original graph.
	SourceGraphID string `json:"source_graph_id,omitempty"`
	// SyntheticGraphID is set in pair mode: the stored synthetic graph that
	// was measured.
	SyntheticGraphID string `json:"synthetic_graph_id,omitempty"`
	// ModelID is set in model mode: the fitted model the samples came from.
	ModelID string `json:"model_id,omitempty"`
	// Samples holds one row per evaluated sample, in index order.
	Samples []EvalSample `json:"samples"`
	// Average is the element-wise mean over the successful samples; nil until
	// at least one sample succeeds.
	Average *experiments.GraphMetrics `json:"average,omitempty"`
}

// SubmitEvaluate accepts an evaluate job and starts it in the background,
// returning its ID.
func (m *Manager) SubmitEvaluate(spec EvalSpec) (string, error) {
	if spec.Source == nil {
		return "", errors.New("jobs: nil source graph in evaluate spec")
	}
	switch {
	case spec.Synthetic != nil && spec.Model != nil:
		return "", errors.New("jobs: evaluate spec sets both a synthetic graph and a model; want exactly one")
	case spec.Synthetic != nil:
		spec.Count = 1
	case spec.Model != nil:
		if err := spec.Check(); err != nil {
			return "", fmt.Errorf("jobs: evaluate: %w", err)
		}
	default:
		return "", errors.New("jobs: evaluate spec needs a synthetic graph or a model")
	}

	return m.register(&job{eval: spec}, Info{
		Kind:    KindEvaluate,
		ModelID: spec.ModelID,
		GraphID: spec.SourceID,
		Count:   spec.Count,
		Eval: &EvalResult{
			SourceGraphID:    spec.SourceID,
			SyntheticGraphID: spec.SyntheticID,
			ModelID:          spec.ModelID,
			Samples:          []EvalSample{},
		},
	}, m.runEvaluate)
}

// runEvaluate executes one evaluate job: samples run sequentially (each
// sample's generation runs the spec's streams and its metric passes shard on
// the process default), the running average updates after every success, and
// cancellation is honoured between samples.
func (m *Manager) runEvaluate(ctx context.Context, j *job) {
	defer m.wg.Done()
	defer j.cancel()

	j.mu.Lock()
	spec := j.eval
	j.info.Status = StatusRunning
	j.info.StartedAt = m.opts.Clock()
	count := j.info.Count
	j.mu.Unlock()

	// Every sample is compared against the same source: measure it once.
	start := time.Now()
	source := experiments.Measure(spec.Source)
	recordStage(j, KindEvaluate, "compare", time.Since(start))

	var metrics []experiments.GraphMetrics
	for i := 0; i < count && ctx.Err() == nil; i++ {
		sample := m.evalSample(ctx, j, spec, source, i)
		if sample == nil { // cancelled mid-sample
			break
		}
		j.mu.Lock()
		j.info.Eval.Samples = append(j.info.Eval.Samples, *sample)
		if sample.Error != "" {
			j.info.Failed++
		} else {
			j.info.Completed++
			metrics = append(metrics, *sample.Metrics)
			avg := experiments.Average(metrics)
			j.info.Eval.Average = &avg
		}
		j.mu.Unlock()
	}

	m.finish(j, func(info *Info) {
		switch {
		case ctx.Err() != nil:
			info.Status = StatusCancelled
		case info.Completed == 0:
			info.Status = StatusFailed
		default:
			info.Status = StatusDone
		}
	})
}

// evalSample produces and scores sample i of an evaluate job against the
// measured source. It returns nil only when the context was cancelled before
// a result could be recorded.
func (m *Manager) evalSample(ctx context.Context, j *job, spec EvalSpec, source experiments.Measurement, i int) *EvalSample {
	sample := &EvalSample{Index: i}
	synthetic := spec.Synthetic
	if synthetic == nil {
		sctx, cancel := m.sampleContext(ctx)
		defer cancel()
		start := time.Now()
		g, usedSeed, err := m.opts.Engine.SampleSeeded(sctx, spec.Request(i))
		recordStage(j, KindEvaluate, "sample", time.Since(start))
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			sample.Error = err.Error()
			return sample
		}
		sample.Seed = usedSeed
		synthetic = g
	}

	start := time.Now()
	measured := experiments.Measure(synthetic)
	u := source.Compare(measured)
	recordStage(j, KindEvaluate, "compare", time.Since(start))
	if ctx.Err() != nil {
		return nil
	}
	sample.Nodes = measured.Summary.Nodes
	sample.Edges = measured.Summary.Edges
	sample.Triangles = measured.Summary.Triangles
	sample.Metrics = &u
	return sample
}
