// Package triangles implements exact and differentially private triangle
// counting. The private estimator follows the Ladder framework of Zhang,
// Cormode, Procopiuc, Srivastava and Xiao (SIGMOD 2015), which the paper uses
// to fit the TriCycLe structural model (Appendix C.3.2): it combines "local
// sensitivity at distance t" with the exponential mechanism to release an
// accurate triangle count under ε-differential privacy, up to the δ < 1e-10
// its rung cap adds (see LadderCount).
package triangles

import (
	"fmt"
	"math"
	"math/rand"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// LocalSensitivityAtDistance returns an upper bound on the local sensitivity
// of triangle counting at distance t from g:
//
//	LS_t(G) ≤ min(maxCN(G) + t, n − 2)
//
// Each edge modification changes the common-neighbour count of any fixed pair
// by at most one, so t modifications increase the maximum by at most t, and
// no pair can ever share more than n−2 common neighbours. The bound is
// monotone in t and 1-Lipschitz across neighbouring graphs, which makes it a
// valid ladder function for the Ladder mechanism.
func LocalSensitivityAtDistance(maxCN, t, n int) int {
	cap := n - 2
	if cap < 0 {
		cap = 0
	}
	v := maxCN + t
	if v > cap {
		v = cap
	}
	if v < 0 {
		v = 0
	}
	return v
}

// LadderOptions configures the Ladder triangle estimator.
type LadderOptions struct {
	// MaxRungs caps the number of ladder rungs considered on each side of the
	// true count. Rung t carries weight exp(−ε·t/2), so once that factor is
	// negligible further rungs cannot influence the sample. Zero means choose
	// automatically from epsilon.
	MaxRungs int
}

// LadderCount releases an (ε, δ)-differentially private estimate of the
// triangle count of g, δ < 1e-10, using the Ladder framework.
//
// The mechanism centres a sequence of "rungs" on the true count f(G). Rung 0
// is the singleton {f(G)}; rung t (t ≥ 1) contains the integers whose distance
// from f(G) lies in (B_{t−1}, B_t], where B_t = Σ_{s=1..t} LS_s(G) accumulates
// the ladder function. Values in rung t receive utility −t, and an output is
// drawn with the exponential mechanism (utility sensitivity 1), i.e. rung t is
// selected with probability proportional to |rung t| · exp(−ε·t/2) and a value
// is then drawn uniformly inside the rung. Negative candidates are clamped to
// zero after sampling (post-processing).
//
// The rung cap (LadderOptions.MaxRungs, by default ⌈55.4/ε⌉ + 1 rungs, past
// which a rung's weight exp(−ε·t/2) is below 1e-12) makes the output range
// depend on the data, so the release is (ε, δ)-DP rather than pure ε-DP.
// The capped draw lies within total-variation distance η of the uncapped
// mechanism, which is pure ε-DP, where η is the dropped rungs' share of the
// weight; hence δ = (1 + e^ε)·η. At the default cap η < 3e-11 on every graph
// while ε > 2.8e-4 (below that the 200,000-rung limit binds), so δ < 1e-10.
//
// The mechanism's two exact measurements — f(G) and the maximum common-
// neighbour count behind LS_t(G) — are computed together from one
// degree-ranked view of g (graph.TrianglesAndMaxCommonNeighbors). Both are
// the same for every worker count and the mechanism's random draws stay
// sequential on rng, so the released estimate depends only on (graph,
// epsilon, opts, rng state).
func LadderCount(rng *rand.Rand, g *graph.Graph, epsilon float64, opts LadderOptions) int64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("triangles: non-positive epsilon %v", epsilon))
	}
	n := g.NumNodes()
	tri, maxCN := g.TrianglesAndMaxCommonNeighbors()
	trueCount := float64(tri)

	maxRungs := opts.MaxRungs
	if maxRungs <= 0 {
		maxRungs = defaultMaxRungs(epsilon)
	}

	// Rung widths on each side. Rung t spans width LS_t(G) per side.
	type rung struct {
		t     int
		size  float64 // number of integer candidates in the rung
		lower float64 // distance band (lower, upper] from the centre
		upper float64
	}
	rungs := make([]rung, 0, maxRungs+1)
	rungs = append(rungs, rung{t: 0, size: 1})
	cum := 0.0
	for t := 1; t <= maxRungs; t++ {
		width := float64(LocalSensitivityAtDistance(maxCN, t, n))
		if width <= 0 {
			width = 1 // degenerate tiny graphs: keep the ladder well-formed
		}
		r := rung{t: t, lower: cum, upper: cum + width, size: 2 * width}
		rungs = append(rungs, r)
		cum += width
	}

	// Select a rung with the exponential mechanism over utility −t.
	scores := make([]float64, len(rungs))
	for i, r := range rungs {
		// Fold the rung size into the score so that the utility-based
		// exponential mechanism over individual integer outputs is simulated
		// exactly: Pr[rung] ∝ size · exp(−ε·t/2).
		scores[i] = -float64(r.t) + 2*math.Log(r.size)/epsilon
	}
	idx := dp.ExponentialMechanism(rng, scores, 1, epsilon)
	chosen := rungs[idx]

	var value float64
	if chosen.t == 0 {
		value = trueCount
	} else {
		// Uniform integer offset in (lower, upper], mirrored to either side:
		// every integer of the rung gets the same weight, which the
		// exponential-mechanism argument needs. The min guards against u·w
		// rounding up to w.
		width := chosen.upper - chosen.lower
		offset := chosen.lower + 1 + math.Min(math.Floor(rng.Float64()*width), width-1)
		if rng.Intn(2) == 0 {
			value = trueCount + offset
		} else {
			value = trueCount - offset
		}
	}
	if value < 0 {
		value = 0
	}
	return int64(math.Round(value))
}

// defaultMaxRungs is the automatic rung cap: past it a rung's weight
// exp(−ε·t/2) is below 1e-12.
func defaultMaxRungs(epsilon float64) int {
	return min(int(math.Ceil(2*27.7/epsilon))+1, 200000)
}

// NaiveLaplaceCount releases the triangle count using the Laplace mechanism
// calibrated to the worst-case global sensitivity n−2 (a single edge can close
// up to n−2 triangles). It is provided as the baseline the paper argues
// against; on realistic graphs its error is enormous compared to LadderCount.
func NaiveLaplaceCount(rng *rand.Rand, g *graph.Graph, epsilon float64) int64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("triangles: non-positive epsilon %v", epsilon))
	}
	sens := float64(g.NumNodes() - 2)
	if sens < 1 {
		sens = 1
	}
	noisy := dp.LaplaceMechanism(rng, float64(g.Triangles()), sens, epsilon)
	if noisy < 0 {
		noisy = 0
	}
	return int64(math.Round(noisy))
}

// PrivateCount is the estimator AGM-DP uses by default: the Ladder mechanism
// with automatic rung selection.
func PrivateCount(rng *rand.Rand, g *graph.Graph, epsilon float64) int64 {
	return LadderCount(rng, g, epsilon, LadderOptions{})
}
