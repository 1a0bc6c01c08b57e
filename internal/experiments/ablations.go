package experiments

import (
	"fmt"
	"math"
	"strings"

	"agmdp/internal/core"
	"agmdp/internal/datasets"
	"agmdp/internal/degrees"
	"agmdp/internal/dp"
	"agmdp/internal/stats"
	"agmdp/internal/structural"
	"agmdp/internal/triangles"
)

// BudgetSplitResult compares alternative privacy-budget splits for
// AGMDP-TriCycLe on one dataset at one ε (the design choice Section 4 of the
// paper fixes to an even four-way split).
type BudgetSplitResult struct {
	Dataset string
	Epsilon float64
	// Splits maps a human-readable split label to the averaged metrics.
	Splits map[string]GraphMetrics
}

// RunAblationBudgetSplit compares the paper's even four-way split against two
// alternatives that favour the structural parameters or the attribute
// parameters.
func RunAblationBudgetSplit(datasetName string, epsilon float64, opts Options) (*BudgetSplitResult, error) {
	opts = opts.withDefaults()
	profile, err := opts.profileFor(datasetName)
	if err != nil {
		return nil, err
	}
	input := datasets.Generate(dp.NewRand(opts.Seed), profile)
	splits := map[string][]float64{
		"even (paper)":      {0.25, 0.25, 0.25, 0.25},
		"structure-heavy":   {0.15, 0.15, 0.35, 0.35},
		"correlation-heavy": {0.15, 0.45, 0.20, 0.20},
	}
	measured := Measure(input)
	result := &BudgetSplitResult{Dataset: datasetName, Epsilon: epsilon, Splits: map[string]GraphMetrics{}}
	for label, weights := range splits {
		var all []GraphMetrics
		for trial := 0; trial < opts.Trials; trial++ {
			rng := dp.NewRand(opts.Seed + int64(trial)*31 + 7)
			split := make([]float64, len(weights))
			for i, w := range weights {
				split[i] = epsilon * w
			}
			synth, _, err := core.Synthesize(rng, input, core.Config{Epsilon: epsilon, BudgetSplit: split},
				core.SampleOptions{Iterations: opts.SampleIterations})
			if err != nil {
				return nil, err
			}
			all = append(all, measured.Compare(Measure(synth)))
		}
		result.Splits[label] = Average(all)
	}
	return result, nil
}

// FormatBudgetSplit renders a budget-split ablation result.
func FormatBudgetSplit(r *BudgetSplitResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — budget split for AGMDP-TriCL on %s at eps=%.3g\n", r.Dataset, r.Epsilon)
	fmt.Fprintf(&b, "%-20s %10s %8s %8s %8s\n", "split", "H_ThetaF", "KS_S", "n_tri", "C_avg")
	for label, m := range r.Splits {
		fmt.Fprintf(&b, "%-20s %10.3f %8.3f %8.3f %8.3f\n", label, m.HellingerThetaF, m.KSDegree, m.MRETriangles, m.MREAvgClustering)
	}
	return b.String()
}

// ConstrainedInferenceResult compares the degree-sequence error with and
// without the Hay et al. isotonic post-processing step.
type ConstrainedInferenceResult struct {
	Dataset         string
	Epsilon         float64
	L1WithInference float64
	L1Naive         float64
}

// RunAblationConstrainedInference measures the average per-node L1 error of
// the private degree sequence with and without constrained inference.
func RunAblationConstrainedInference(datasetName string, epsilon float64, opts Options) (*ConstrainedInferenceResult, error) {
	opts = opts.withDefaults()
	profile, err := opts.profileFor(datasetName)
	if err != nil {
		return nil, err
	}
	input := datasets.Generate(dp.NewRand(opts.Seed), profile)
	truth := input.DegreeSequence()
	res := &ConstrainedInferenceResult{Dataset: datasetName, Epsilon: epsilon}
	for trial := 0; trial < opts.Trials; trial++ {
		rngA := dp.NewRand(opts.Seed + int64(trial))
		rngB := dp.NewRand(opts.Seed + int64(trial))
		with := degrees.PrivateSequenceFromDegrees(rngA, input.Degrees(), input.NumNodes(), epsilon,
			degrees.Options{ConstrainedInference: true, Round: false})
		naive := degrees.PrivateSequenceFromDegrees(rngB, input.Degrees(), input.NumNodes(), epsilon,
			degrees.Options{ConstrainedInference: false, Round: false})
		for i := range truth {
			res.L1WithInference += math.Abs(with[i] - float64(truth[i]))
			res.L1Naive += math.Abs(naive[i] - float64(truth[i]))
		}
	}
	norm := float64(opts.Trials * len(truth))
	res.L1WithInference /= norm
	res.L1Naive /= norm
	return res, nil
}

// TriangleEstimatorResult compares the Ladder triangle estimator against the
// naive Laplace baseline.
type TriangleEstimatorResult struct {
	Dataset   string
	Epsilon   float64
	Truth     int64
	LadderMRE float64
	NaiveMRE  float64
}

// RunAblationTriangleEstimators measures the mean relative error of the two
// private triangle-count estimators used (or rejected) by the paper.
func RunAblationTriangleEstimators(datasetName string, epsilon float64, opts Options) (*TriangleEstimatorResult, error) {
	opts = opts.withDefaults()
	profile, err := opts.profileFor(datasetName)
	if err != nil {
		return nil, err
	}
	input := datasets.Generate(dp.NewRand(opts.Seed), profile)
	truth := input.Triangles()
	res := &TriangleEstimatorResult{Dataset: datasetName, Epsilon: epsilon, Truth: truth}
	for trial := 0; trial < opts.Trials; trial++ {
		seed := opts.Seed + int64(trial)*13
		ladder := triangles.PrivateCount(dp.NewRand(seed), input, epsilon)
		naive := triangles.NaiveLaplaceCount(dp.NewRand(seed+1), input, epsilon)
		res.LadderMRE += stats.RelativeError(float64(truth), float64(ladder))
		res.NaiveMRE += stats.RelativeError(float64(truth), float64(naive))
	}
	res.LadderMRE /= float64(opts.Trials)
	res.NaiveMRE /= float64(opts.Trials)
	return res, nil
}

// PostProcessResult compares TriCycLe with and without the orphan-node
// post-processing extension (Algorithm 2).
type PostProcessResult struct {
	Dataset        string
	OrphansWith    float64
	OrphansWithout float64
	EdgesWith      float64
	EdgesWithout   float64
}

// RunAblationPostProcess measures the number of orphaned nodes in TriCycLe
// output with and without Algorithm 2.
func RunAblationPostProcess(datasetName string, opts Options) (*PostProcessResult, error) {
	opts = opts.withDefaults()
	profile, err := opts.profileFor(datasetName)
	if err != nil {
		return nil, err
	}
	input := datasets.Generate(dp.NewRand(opts.Seed), profile)
	params := structural.Params{Degrees: input.DegreeSequence(), Triangles: input.Triangles()}
	res := &PostProcessResult{Dataset: datasetName}
	for trial := 0; trial < opts.Trials; trial++ {
		rngA := dp.NewRand(opts.Seed + int64(trial)*17)
		rngB := dp.NewRand(opts.Seed + int64(trial)*17)
		with := structural.TriCycLe{}.Generate(rngA, input.NumNodes(), params, nil).Finalize()
		without := structural.TriCycLe{DisablePostProcess: true}.Generate(rngB, input.NumNodes(), params, nil).Finalize()
		res.OrphansWith += float64(len(with.OrphanedNodes()))
		res.OrphansWithout += float64(len(without.OrphanedNodes()))
		res.EdgesWith += float64(with.NumEdges())
		res.EdgesWithout += float64(without.NumEdges())
	}
	trials := float64(opts.Trials)
	res.OrphansWith /= trials
	res.OrphansWithout /= trials
	res.EdgesWith /= trials
	res.EdgesWithout /= trials
	return res, nil
}
