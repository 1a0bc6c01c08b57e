package core

import (
	"context"
	"fmt"
	"math/rand"

	"agmdp/internal/attrs"
	"agmdp/internal/graph"
	"agmdp/internal/structural"
)

// SampleOptions controls the synthesis step of AGM / AGM-DP (lines 6–19 of
// Algorithm 3 and Figure 4b).
type SampleOptions struct {
	// Iterations is the number of acceptance-probability refinement rounds;
	// zero selects DefaultSampleIterations. Each round regenerates the edge
	// set with updated acceptance probabilities derived from comparing the
	// learned Θ̃F against the correlations observed in the current graph.
	Iterations int
	// Model overrides the structural model used for sampling; nil selects the
	// model the parameters were fitted for (TriCycLe or FCL by name).
	Model structural.Model
}

// modelFor resolves the structural model to sample with.
func (o SampleOptions) modelFor(m *FittedModel) structural.Model {
	if o.Model != nil {
		return o.Model
	}
	switch m.ModelName {
	case "FCL":
		return structural.FCL{}
	case "TCL":
		return structural.TCL{}
	default:
		return structural.TriCycLe{}
	}
}

// Sample draws one synthetic attributed graph from the fitted model. The
// procedure follows Algorithm 3: fresh attribute vectors are sampled from
// Θ̃X, a temporary edge set is generated by the structural model, and the
// edge set is then regenerated for a small number of rounds with acceptance
// probabilities A(y) that steer the realised attribute–edge correlations
// toward Θ̃F. Sampling only uses the fitted parameters, so by the
// post-processing property it does not consume any additional privacy budget.
func Sample(rng *rand.Rand, m *FittedModel, opts SampleOptions) (*graph.Graph, error) {
	src, err := SampleSource(rng, m, opts)
	if err != nil {
		return nil, err
	}
	return graph.Materialize(src), nil
}

// SampleSource is Sample returning a streaming row-level view instead of a
// packed CSR graph: the generator's still-mutable builder with the sampled
// attribute vectors overlaid. The final offsets/neighbors arrays are never
// packed, so an encoder can pull sorted row ranges straight from the
// builder's per-node adjacency lists with O(row) extra memory.
// graph.Materialize on the result is byte-identical to Sample at the same
// rng state, and the rng trace itself is identical to Sample's, so the two
// entry points are interchangeable per (seed, workers).
//
// The returned source is the final round's builder with the attribute
// vectors overlaid: the final round is the one round whose packed form is
// never needed, which is what makes the end-to-end pipeline O(shard).
func SampleSource(rng *rand.Rand, m *FittedModel, opts SampleOptions) (graph.RowSource, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	model := opts.modelFor(m)
	// Line 6: sample new attribute vectors X̃ from Θ̃X.
	attrVecs := attrs.SampleAttributes(rng, m.ThetaX, m.N, m.W)
	classes := nodeClasses(attrVecs, m.W)
	table, cur := refine(rng, m, model, opts.Iterations, attrVecs, classes)
	if cur == nil {
		// The final edge set, drawn with the converged table.
		cur = model.Generate(rng, m.N, m.Structural, acceptanceFilter(classes, m.W, table))
	}
	return graph.SourceWithAttributes(cur, m.W, attrVecs), nil
}

// refine runs the refinement rounds of Algorithm 3 (lines 7–18) over the
// sampled attribute vectors and their classes and returns the converged
// acceptance table A(y), nil when no round produced one. Each round
// observes the correlations of the last graph drawn and derives the next
// table; only the rounds up to the last table draw a graph, so drawing the
// final edge set with that table is left to the caller. A round whose
// ratios are all zero ends the refinement early, and then the last graph
// drawn was drawn with the returned table (unfiltered when it is nil): it
// is returned as drawn, and it is the sample. drawn is nil otherwise.
//
// Intermediate rounds are frozen because the correlation counting pass reads
// CSR rows; builders freeze non-destructively and draw no randomness, so
// freezing leaves the rng trace and the builder itself intact.
func refine(rng *rand.Rand, m *FittedModel, model structural.Model, iterations int, attrVecs []graph.AttrVector, classes []int) (table []float64, drawn *graph.Builder) {
	if iterations <= 0 {
		iterations = DefaultSampleIterations
	}
	// Line 7: sample a temporary edge set independently of the attributes.
	cur := model.Generate(rng, m.N, m.Structural, nil)

	// Lines 8–18: iterate acceptance probabilities until they converge (a
	// fixed small number of rounds, as in the paper's experiments).
	y := attrs.NumEdgeConfigs(m.W)
	for iter := 0; iter < iterations; iter++ {
		if iter > 0 {
			cur = model.Generate(rng, m.N, m.Structural, acceptanceFilter(classes, m.W, table))
		}
		observed := attrs.TrueThetaF(attachAttributes(cur.Finalize(), attrVecs, m.W))
		ratios := make([]float64, y)
		sup := 0.0
		for i := 0; i < y; i++ {
			ratios[i] = acceptanceRatio(m.ThetaF[i], observed[i])
			if table != nil {
				ratios[i] *= table[i]
			}
			if ratios[i] > sup {
				sup = ratios[i]
			}
		}
		if sup <= 0 {
			return table, cur
		}
		accept := make([]float64, y)
		for i := range ratios {
			accept[i] = ratios[i] / sup
		}
		table = accept
	}
	return table, nil
}

// FitAcceptanceTable computes a reusable acceptance table A(y) for the model:
// it runs the refinement rounds of Algorithm 3 once — with a deterministic
// rng derived from the model's content address AND sequential structural
// generation, so the table is a pure function of the model parameters: the
// same on every host regardless of core count or the parallelism carried by
// opts.Model — and returns the converged table. Its rounds draw
// opts.Iterations graphs (DefaultSampleIterations when zero), one fewer than
// Sample: the graph Sample draws with the last table decides no table, so
// the fit never draws it. Sampling with the table (SampleSourceWithTable)
// then needs a single structural generation instead of 1+Iterations, which
// is the hot-path saving the registry's acceptance cache exists for. The
// table never touches the sensitive input graph, so caching it is
// post-processing and consumes no privacy budget. Because the table is
// fitted by sampling, it also depends on how the structural generators
// draw: a build whose generators draw differently fits a different table
// for the same model, which is why persisted tables carry a version.
func FitAcceptanceTable(m *FittedModel, opts SampleOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	id, err := ModelID(m)
	if err != nil {
		return nil, err
	}
	// Derive the fitting seed from the content address so equal models always
	// produce equal tables, no matter which request triggered the fit.
	var seed int64
	for i := 0; i < 8; i++ {
		seed = seed<<8 | int64(id[i])
	}
	rng := rand.New(rand.NewSource(seed))
	model := structural.WithParallelism(opts.modelFor(m), 1)
	attrVecs := attrs.SampleAttributes(rng, m.ThetaX, m.N, m.W)
	table, _ := refine(rng, m, model, opts.Iterations, attrVecs, nodeClasses(attrVecs, m.W))
	if table == nil {
		// Degenerate models (no refinement round survived): accept everything,
		// which is exactly what Sample's unfiltered fallback does.
		table = make([]float64, attrs.NumEdgeConfigs(m.W))
		for i := range table {
			table[i] = 1
		}
	}
	return table, nil
}

// SampleSourceWithTable draws one synthetic attributed graph using a
// pre-fitted acceptance table instead of per-sample refinement: fresh
// attributes from Θ̃X, then a single structural generation filtered by A(y).
// Output is deterministic per (rng seed, model, table, structural
// parallelism). opts.Iterations is ignored — the refinement already happened
// when the table was fitted. It returns a streaming row-level view; see
// SampleSource for the contract. With a pre-fitted table the single
// structural generation is the final one, so nothing in the whole call packs
// a CSR array.
func SampleSourceWithTable(rng *rand.Rand, m *FittedModel, table []float64, opts SampleOptions) (graph.RowSource, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(table) != attrs.NumEdgeConfigs(m.W) {
		return nil, fmt.Errorf("core: acceptance table has %d entries, want %d", len(table), attrs.NumEdgeConfigs(m.W))
	}
	if err := CheckAcceptanceTable(table); err != nil {
		return nil, err
	}
	model := opts.modelFor(m)
	attrVecs := attrs.SampleAttributes(rng, m.ThetaX, m.N, m.W)
	filter := acceptanceFilter(nodeClasses(attrVecs, m.W), m.W, table)
	return graph.SourceWithAttributes(model.Generate(rng, m.N, m.Structural, filter), m.W, attrVecs), nil
}

// CheckAcceptanceTable reports an error unless every entry of table is an
// acceptance probability: a number in [0, 1]. NaN, infinities and negative
// entries are refused.
func CheckAcceptanceTable(table []float64) error {
	for i, p := range table {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("core: acceptance table entry %d is %v, not a probability in [0, 1]", i, p)
		}
	}
	return nil
}

// nodeClasses returns every node's attribute configuration f_w(x̃_u), the
// class the acceptance filter reads. The attributes are drawn once per
// sample, so one slice serves every refinement round.
func nodeClasses(vecs []graph.AttrVector, w int) []int {
	classes := make([]int, len(vecs))
	for u, x := range vecs {
		classes[u] = attrs.NodeConfig(x, w)
	}
	return classes
}

// acceptanceFilter is AGM's filter A(F_w(x̃_u, x̃_v)) over the node classes
// of one sample: a class pair's acceptance is the table entry of its edge
// configuration, read in place.
func acceptanceFilter(classes []int, w int, table []float64) *structural.EdgeFilter {
	return &structural.EdgeFilter{
		Class:   classes,
		Classes: attrs.NumNodeConfigs(w),
		Pair:    func(a, b int) float64 { return table[attrs.PairConfig(a, b)] },
	}
}

// acceptanceRatio computes Θ̃F(y)/Θ'F(y) with guards for sparse observations.
// The ratio is capped at maxAcceptanceRatio: a configuration the model wants
// but the current graph (almost) never produced still gets the highest
// acceptance probability after normalisation, but the cap keeps sup(R)
// bounded, and with it how far the filter skews the edge distribution. The
// Chung–Lu seed draws accepted edges directly, so no acceptance rate can
// starve it; the cap still bounds the rejection rate of the loops that roll
// the filter per proposal — TriCycLe's rewiring, TCL's replacement loop and
// the orphan repair — when a noisy Θ̃F asks for correlations the sampled
// attributes can barely supply. Configurations with no target mass are
// suppressed entirely.
func acceptanceRatio(target, observed float64) float64 {
	const maxAcceptanceRatio = 50.0
	if target <= 0 {
		if observed <= 0 {
			return 1
		}
		return 0
	}
	floor := target / maxAcceptanceRatio
	if observed < floor {
		observed = floor
	}
	return target / observed
}

// attachAttributes views the structural model's output (which carries no
// attributes) as an attributed graph of width w with the sampled attribute
// vectors assigned to its nodes. The immutable CSR topology is shared, so the
// call is O(n) regardless of the edge count.
func attachAttributes(structure *graph.Graph, vecs []graph.AttrVector, w int) *graph.Graph {
	if structure.NumNodes() != len(vecs) {
		panic(fmt.Sprintf("core: %d attribute vectors for %d nodes", len(vecs), structure.NumNodes()))
	}
	return structure.WithAttributes(w, vecs)
}

// Synthesize is the complete AGM-DP pipeline (Algorithm 3): it privately fits
// the model parameters with FitDP and then samples a synthetic graph. The
// output satisfies ε-differential privacy with ε = cfg.Epsilon by sequential
// composition of the learning steps and post-processing of the sampler.
func Synthesize(rng *rand.Rand, g *graph.Graph, cfg Config, opts SampleOptions) (*graph.Graph, *FittedModel, error) {
	fitted, err := FitDP(context.Background(), rng, g, cfg)
	if err != nil {
		return nil, nil, err
	}
	synth, err := Sample(rng, fitted, opts)
	if err != nil {
		return nil, nil, err
	}
	return synth, fitted, nil
}

// SynthesizeNonPrivate runs the original AGM workflow with exact parameters,
// used as the non-private reference point in the experiment tables.
func SynthesizeNonPrivate(rng *rand.Rand, g *graph.Graph, model structural.Model, opts SampleOptions) (*graph.Graph, *FittedModel, error) {
	fitted := Fit(g, model)
	synth, err := Sample(rng, fitted, opts)
	if err != nil {
		return nil, nil, err
	}
	return synth, fitted, nil
}
