// Package structural implements the generative structural models used by
// AGM-DP: the Chung–Lu random graph model and its fast implementation (FCL),
// the Transitive Chung–Lu model (TCL) of Pfeiffer et al., and the paper's new
// TriCycLe model (Algorithm 1) together with the orphan-node post-processing
// step (Algorithm 2). An Erdős–Rényi generator is included as a trivial
// baseline for tests and examples.
//
// All generators are deterministic given a *rand.Rand and accept an optional
// EdgeFilter, which is how AGM-DP injects its attribute-correlation
// acceptance probabilities into edge proposal (Section 4 of the paper).
package structural

import (
	"fmt"
	"math/rand"
	"strings"

	"agmdp/internal/graph"
)

// EdgeFilter is AGM's acceptance filter: every node belongs to one class,
// and a proposed edge {u, v} is kept with a probability that depends only on
// the ordered pair of its endpoints' classes. AGM-DP's class of a node is its
// attribute configuration f_w(x̃_u), and a class pair's acceptance is
// A(F_w(x̃_u, x̃_v)), read from the acceptance table the learned attribute
// correlations refine. Because acceptance depends on classes alone, the
// Chung–Lu seed draws its accepted edges directly (see GenerateCL) instead
// of rejecting proposals. A nil *EdgeFilter accepts every proposal. A filter
// is never modified by a generator, so concurrent streams share one.
type EdgeFilter struct {
	// Class holds the class of every node, each in [0, Classes).
	Class []int
	// Classes is the number of classes.
	Classes int
	// Pair returns the probability, in [0, 1], with which an edge from a
	// node of class a to a node of class b is accepted.
	Pair func(a, b int) float64
}

// Accept returns the probability with which a proposed edge {u, v} is
// accepted.
func (f *EdgeFilter) Accept(u, v int) float64 { return f.Pair(f.Class[u], f.Class[v]) }

// acceptEdge rolls the filter for a proposed edge.
func acceptEdge(rng *rand.Rand, filter *EdgeFilter, u, v int) bool {
	if filter == nil {
		return true
	}
	p := filter.Accept(u, v)
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rng.Float64() <= p
}

// Params bundles the structural-model parameters ΘM that AGM-DP learns from
// the input graph. Degrees is the (sorted or unsorted) target degree sequence
// assigned positionally to nodes 0..n−1; Triangles is the target triangle
// count used by TriCycLe; Rho is the transitive-closure probability used by
// TCL.
type Params struct {
	Degrees   []int
	Triangles int64
	Rho       float64
}

// Validate checks that the parameters are internally consistent for a model
// over n nodes.
func (p Params) Validate(n int) error {
	if len(p.Degrees) != n {
		return fmt.Errorf("structural: degree sequence has %d entries for %d nodes", len(p.Degrees), n)
	}
	for i, d := range p.Degrees {
		if d < 0 || d > n-1 {
			return fmt.Errorf("structural: degree %d at position %d outside [0, %d]", d, i, n-1)
		}
	}
	if p.Triangles < 0 {
		return fmt.Errorf("structural: negative triangle target %d", p.Triangles)
	}
	if p.Rho < 0 || p.Rho > 1 {
		return fmt.Errorf("structural: transitive closure probability %v outside [0, 1]", p.Rho)
	}
	return nil
}

// ByName resolves a structural model from a user-facing or fitted name:
// "tricycle"/"tricl"/"TriCycLe", "fcl", or "tcl", case-insensitively; the
// empty string selects TriCycLe. parallelism configures the resolved model's
// concurrent proposal streams where the model supports them (≤ 0 means
// "auto", 1 forces sequential generation). It is the single resolver shared
// by the facade, the engine and the HTTP API, so the accepted spellings
// cannot drift apart between fitting and sampling.
func ByName(name string, parallelism int) (Model, error) {
	switch strings.ToLower(name) {
	case "", "tricycle", "tricl":
		return TriCycLe{Parallelism: parallelism}, nil
	case "fcl":
		return FCL{Parallelism: parallelism}, nil
	case "tcl":
		return TCL{}, nil
	default:
		return nil, fmt.Errorf("structural: unknown model %q (want tricycle, fcl or tcl)", name)
	}
}

// WithParallelism returns a copy of the model with its parallelism knob set
// to n; models without a knob are returned unchanged. It lives next to
// ByName so a new model with concurrent streams gets added to both switches
// together — callers (e.g. the acceptance-table fitter, which pins n = 1 for
// host-independent output) rely on this covering every parallel model.
func WithParallelism(m Model, n int) Model {
	switch t := m.(type) {
	case TriCycLe:
		t.Parallelism = n
		return t
	case FCL:
		t.Parallelism = n
		return t
	default:
		return m
	}
}

// Model is the interface AGM-DP uses to plug in a structural generator.
type Model interface {
	// Name identifies the model in reports ("FCL", "TCL", "TriCycLe", ...).
	Name() string
	// Generate produces a synthetic structure over n nodes following the
	// model's parameters, consulting filter (if non-nil) before accepting any
	// proposed edge. It returns the still-mutable builder: the builder serves
	// row ranges directly (it implements graph.RowSource), so the sample
	// pipeline can encode it without packing CSR arrays, and
	// Builder.Finalize packs it non-destructively and draws no randomness.
	Generate(rng *rand.Rand, n int, params Params, filter *EdgeFilter) *graph.Builder
}
