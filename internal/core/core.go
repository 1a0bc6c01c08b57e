// Package core implements the Attributed Graph Model (AGM) of Pfeiffer et al.
// and the paper's differentially private adaptation AGM-DP (Algorithm 3). It
// ties together the attribute estimators (package attrs), the private degree
// sequence and triangle count estimators (packages degrees and triangles) and
// the structural generators (package structural) into the end-to-end workflow
// of Figure 4: learn Θ̃X, Θ̃F and Θ̃M from the sensitive input graph under a
// split privacy budget, then sample synthetic attributed graphs from the
// learned model without ever touching the input again.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"agmdp/internal/attrs"
	"agmdp/internal/degrees"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/structural"
	"agmdp/internal/triangles"
)

// DefaultSampleIterations is the number of acceptance-probability refinement
// rounds used when sampling (the paper reports convergence "after just a few
// iterations").
const DefaultSampleIterations = 3

// MaxSampleIterations is the most refinement rounds a sample request may ask
// for. Each round is a full structural generation, so a draw's time grows
// linearly with the count.
const MaxSampleIterations = 32

// ErrUnsupportedModel is returned when FitDP is asked to privately fit a
// structural model it has no private estimator for (for example TCL, whose EM
// parameter cannot currently be released under differential privacy).
var ErrUnsupportedModel = errors.New("core: structural model has no differentially private fitting procedure")

// FittedModel holds the (exact or privately estimated) AGM parameters learned
// from an input graph. A FittedModel is all that is needed to sample synthetic
// graphs; it never retains a reference to the input graph.
type FittedModel struct {
	// N is the (public) number of nodes.
	N int
	// W is the number of binary node attributes.
	W int
	// ThetaX is the node-attribute distribution over the 2^W configurations.
	ThetaX []float64
	// ThetaF is the attribute–edge correlation distribution over the
	// NumEdgeConfigs(W) unordered configuration pairs.
	ThetaF []float64
	// Structural carries the structural-model parameters ΘM (degree sequence,
	// triangle count, transitive-closure probability).
	Structural structural.Params
	// ModelName records which structural model the parameters were fitted for.
	ModelName string
	// Epsilon is the total privacy budget consumed to learn the parameters;
	// zero means the model was fitted without privacy.
	Epsilon float64
}

// Private reports whether the model was learned under differential privacy.
func (m *FittedModel) Private() bool { return m.Epsilon > 0 }

// Validate performs basic consistency checks on the fitted parameters.
func (m *FittedModel) Validate() error {
	if m.N < 0 {
		return fmt.Errorf("core: negative node count %d", m.N)
	}
	if m.W < 0 || m.W > graph.MaxAttributes || m.W > attrs.MaxWidth {
		return fmt.Errorf("core: attribute width %d out of range", m.W)
	}
	if len(m.ThetaX) != attrs.NumNodeConfigs(m.W) {
		return fmt.Errorf("core: ThetaX has %d entries, want %d", len(m.ThetaX), attrs.NumNodeConfigs(m.W))
	}
	if len(m.ThetaF) != attrs.NumEdgeConfigs(m.W) {
		return fmt.Errorf("core: ThetaF has %d entries, want %d", len(m.ThetaF), attrs.NumEdgeConfigs(m.W))
	}
	return m.Structural.Validate(m.N)
}

// Config controls FitDP, the differentially private fitting procedure.
type Config struct {
	// Epsilon is the total privacy budget ε shared by all learned parameters.
	Epsilon float64
	// TruncationK is the edge-truncation parameter for learning Θ̃F; zero
	// selects the paper's data-independent heuristic k = n^{1/3}.
	TruncationK int
	// Model is the structural model the parameters are fitted for; nil selects
	// TriCycLe.
	Model structural.Model
	// BudgetSplit optionally overrides how ε is divided among {ΘX, ΘF, S, n∆}
	// (TriCycLe) or {ΘX, ΘF, S} (FCL). Nil uses the paper's splits: an even
	// four-way split for TriCycLe, and ½ for S plus ¼ each for ΘX and ΘF for
	// FCL.
	BudgetSplit []float64
	// Observe, when non-nil, receives the wall-clock duration of each fitting
	// stage as it completes: "attrs" (Θ̃X), "correlations" (Θ̃F), "degrees"
	// (S̃) and, for TriCycLe, "triangles" (ñ∆). The callback only reads the
	// clock — it is invoked after each stage's noise draws, never between
	// them, so attaching an observer cannot perturb the fitted model.
	Observe func(stage string, d time.Duration)
}

// observeStage reports one completed stage to cb, if an observer is attached.
func observeStage(cb func(string, time.Duration), stage string, start time.Time) {
	if cb != nil {
		cb(stage, time.Since(start))
	}
}

// normalizedModel returns the configured structural model, defaulting to
// TriCycLe.
func (c Config) normalizedModel() structural.Model {
	if c.Model == nil {
		return structural.TriCycLe{}
	}
	return c.Model
}

// Fit learns exact (non-private) AGM parameters from g for the given
// structural model. It is the baseline the paper reports as AGM-FCL /
// AGM-TriCL. The measurement passes shard on the process-default worker
// count and are bit-identical for every count, so the fitted model depends
// only on the input graph and the model choice.
func Fit(g *graph.Graph, model structural.Model) *FittedModel {
	// A background context never cancels, so the error is statically nil.
	m, _ := fitObserved(context.Background(), g, model, nil)
	return m
}

// fitObserved is Fit with a cancellation context and an optional stage
// observer; it reports the same stage names as FitDP so synchronous and
// private fits share one timing vocabulary, and it checks ctx at the same
// stage boundaries so cancellable serving paths behave identically whether or
// not a fit is private.
func fitObserved(ctx context.Context, g *graph.Graph, model structural.Model, observe func(string, time.Duration)) (*FittedModel, error) {
	if model == nil {
		model = structural.TriCycLe{}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	params := structural.Params{Degrees: g.DegreeSequence()}
	observeStage(observe, "degrees", start)
	switch model.(type) {
	case structural.TriCycLe:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start = time.Now()
		params.Triangles = g.Triangles()
		observeStage(observe, "triangles", start)
	case structural.TCL:
		params.Rho = structural.FitRho(g, 0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	thetaX := attrs.TrueThetaX(g)
	observeStage(observe, "attrs", start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	thetaF := attrs.TrueThetaF(g)
	observeStage(observe, "correlations", start)
	return &FittedModel{
		N:          g.NumNodes(),
		W:          g.NumAttributes(),
		ThetaX:     thetaX,
		ThetaF:     thetaF,
		Structural: params,
		ModelName:  model.Name(),
	}, nil
}

// FitModel runs the fit a Config describes end to end: the differentially
// private pipeline (FitDP) when cfg.Epsilon > 0, the exact non-private
// baseline (Fit) otherwise. It is the single fit entry point shared by
// the synchronous HTTP handler and the asynchronous fit jobs, so the two
// paths cannot drift apart — an async fit registers exactly the model the
// synchronous fit would have.
//
// Cancelling ctx aborts the fit at the next stage boundary (see FitDP for
// the exact contract); the non-private baseline checks the same boundaries.
func FitModel(ctx context.Context, rng *rand.Rand, g *graph.Graph, cfg Config) (*FittedModel, error) {
	if cfg.Epsilon > 0 {
		return FitDP(ctx, rng, g, cfg)
	}
	return fitObserved(ctx, g, cfg.normalizedModel(), cfg.Observe)
}

// FitDP (lines 2–5 of Algorithm 3) learns ε-differentially private AGM
// parameters from g. The privacy budget is split among the attribute
// distribution, the attribute–edge correlations and the structural parameters
// according to the configured split; sequential composition over the disjoint
// learning procedures gives a total privacy cost of ε.
//
// Cancellation: ctx is checked between pipeline stages (Θ̃X, Θ̃F, S̃, ñ∆) and
// never inside one, so a fit either aborts before a stage's noise draws or
// runs the stage to completion — a fit that finishes is bit-identical to one
// run with a background context, and a cancelled fit returns ctx's error
// having released nothing derived from the unfinished stages.
func FitDP(ctx context.Context, rng *rand.Rand, g *graph.Graph, cfg Config) (*FittedModel, error) {
	if cfg.Epsilon <= 0 {
		return nil, fmt.Errorf("core: non-positive privacy budget %v", cfg.Epsilon)
	}
	model := cfg.normalizedModel()
	k := cfg.TruncationK
	if k <= 0 {
		k = attrs.DefaultTruncationK(g.NumNodes())
	}

	var epsX, epsF, epsS, epsTri float64
	switch model.(type) {
	case structural.TriCycLe:
		split := cfg.BudgetSplit
		if split == nil {
			split = dp.SplitEven(cfg.Epsilon, 4)
		}
		if len(split) != 4 {
			return nil, fmt.Errorf("core: TriCycLe budget split needs 4 parts, got %d", len(split))
		}
		epsX, epsF, epsS, epsTri = split[0], split[1], split[2], split[3]
	case structural.FCL:
		split := cfg.BudgetSplit
		if split == nil {
			split = dp.SplitWeighted(cfg.Epsilon, []float64{1, 1, 2})
		}
		if len(split) != 3 {
			return nil, fmt.Errorf("core: FCL budget split needs 3 parts, got %d", len(split))
		}
		epsX, epsF, epsS = split[0], split[1], split[2]
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedModel, model.Name())
	}

	budget := dp.NewBudget(cfg.Epsilon)
	charge := func(eps float64) error {
		if eps <= 0 {
			return fmt.Errorf("core: non-positive budget share %v", eps)
		}
		return budget.Spend(eps)
	}

	// The learning procedures below interleave two kinds of work: exact
	// measurements of the input graph (histograms, degrees, triangle and
	// common-neighbour counts), which shard across the process-default
	// worker count and are bit-identical for every worker count, and the
	// privacy-critical noise draws, which stay sequential on rng in a fixed
	// order. A private fit is therefore reproducible per (graph, cfg, rng
	// seed) no matter how many workers measure the graph.

	// Θ̃X — LearnAttributesDP (Algorithm 5).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := charge(epsX); err != nil {
		return nil, err
	}
	start := time.Now()
	thetaX := attrs.LearnAttributesDP(rng, g, epsX)
	observeStage(cfg.Observe, "attrs", start)

	// Θ̃F — LearnCorrelationsDP (Algorithm 4, edge truncation).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := charge(epsF); err != nil {
		return nil, err
	}
	start = time.Now()
	thetaF := attrs.LearnCorrelationsDP(rng, g, epsF, k)
	observeStage(cfg.Observe, "correlations", start)

	// Θ̃M — FitTriCycLeDP (Algorithm 6) or the FCL degree sequence.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := charge(epsS); err != nil {
		return nil, err
	}
	start = time.Now()
	params := structural.Params{Degrees: degrees.PrivateSequence(rng, g, epsS)}
	observeStage(cfg.Observe, "degrees", start)
	if _, ok := model.(structural.TriCycLe); ok {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := charge(epsTri); err != nil {
			return nil, err
		}
		start = time.Now()
		params.Triangles = triangles.PrivateCount(rng, g, epsTri)
		observeStage(cfg.Observe, "triangles", start)
	}

	return &FittedModel{
		N:          g.NumNodes(),
		W:          g.NumAttributes(),
		ThetaX:     thetaX,
		ThetaF:     thetaF,
		Structural: params,
		ModelName:  model.Name(),
		Epsilon:    cfg.Epsilon,
	}, nil
}
