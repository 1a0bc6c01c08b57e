// Package degrees implements differentially private estimation of a graph's
// degree sequence using the constrained-inference technique of Hay, Li, Miklau
// and Jensen (ICDM 2009), which AGM-DP uses to fit both the FCL and TriCycLe
// structural models (Appendix C.3.1 of the paper).
//
// The estimator sorts the true degree sequence, adds independent Laplace noise
// with scale 2/ε to each position (adding or removing one edge changes exactly
// two degrees by one, so the L1 sensitivity of the sorted sequence is 2), and
// then post-processes the noisy sequence back onto the ordering constraint by
// isotonic (L2-minimising) regression. Post-processing never affects the
// privacy guarantee, while cancelling much of the noise on the long runs of
// equal low degrees that dominate social graphs.
package degrees

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// Isotonic returns the non-decreasing sequence that minimises the L2 distance
// to the input, computed with the pool-adjacent-violators algorithm in O(n).
// This is the "constrained inference" step of Hay et al. The input slice is
// not modified.
func Isotonic(seq []float64) []float64 {
	n := len(seq)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	// Each block is a maximal run that has been pooled to its mean.
	type block struct {
		sum   float64
		count int
	}
	blocks := make([]block, 0, n)
	for _, v := range seq {
		blocks = append(blocks, block{sum: v, count: 1})
		// Merge backwards while the mean of the last block is smaller than the
		// mean of the block before it (an order violation).
		for len(blocks) >= 2 {
			last := blocks[len(blocks)-1]
			prev := blocks[len(blocks)-2]
			if prev.sum*float64(last.count) <= last.sum*float64(prev.count) {
				break
			}
			blocks = blocks[:len(blocks)-2]
			blocks = append(blocks, block{sum: prev.sum + last.sum, count: prev.count + last.count})
		}
	}
	idx := 0
	for _, b := range blocks {
		mean := b.sum / float64(b.count)
		for i := 0; i < b.count; i++ {
			out[idx] = mean
			idx++
		}
	}
	return out
}

// SequenceSensitivity is the L1 global sensitivity of the sorted degree
// sequence under edge adjacency: one edge change alters two degrees by one.
const SequenceSensitivity = 2.0

// Options configures the private degree-sequence estimator.
type Options struct {
	// ConstrainedInference applies the Hay et al. isotonic post-processing
	// step. Disabling it yields the naive Laplace estimator (used only for the
	// ablation study).
	ConstrainedInference bool
	// Round rounds each estimate to the nearest integer in [0, n−1].
	Round bool
}

// DefaultOptions returns the configuration used by the paper: constrained
// inference followed by rounding.
func DefaultOptions() Options {
	return Options{ConstrainedInference: true, Round: true}
}

// PrivateSequenceFromDegrees releases an ε-differentially private estimate of
// the sorted degree sequence given the true (unsorted) node degrees. n is the
// public number of nodes and bounds the clamping range. The result is sorted
// in non-decreasing order.
func PrivateSequenceFromDegrees(rng *rand.Rand, degs []int, n int, epsilon float64, opts Options) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("degrees: non-positive epsilon %v", epsilon))
	}
	if n < len(degs) {
		panic(fmt.Sprintf("degrees: public node count %d smaller than degree list %d", n, len(degs)))
	}
	sorted := make([]float64, len(degs))
	ints := make([]int, len(degs))
	copy(ints, degs)
	sort.Ints(ints)
	for i, d := range ints {
		sorted[i] = float64(d)
	}
	noisy := dp.LaplaceVector(rng, sorted, SequenceSensitivity, epsilon)
	if opts.ConstrainedInference {
		noisy = Isotonic(noisy)
	}
	maxDeg := float64(n - 1)
	if maxDeg < 0 {
		maxDeg = 0
	}
	for i := range noisy {
		noisy[i] = dp.Clamp(noisy[i], 0, maxDeg)
		if opts.Round {
			noisy[i] = math.Round(noisy[i])
		}
	}
	// Clamping and rounding are monotone, so order is preserved when
	// constrained inference ran; re-sorting is a harmless safeguard for the
	// naive path.
	sort.Float64s(noisy)
	return noisy
}

// PrivateSequence releases an ε-differentially private estimate of graph g's
// sorted degree sequence with the paper's default options. Degree extraction
// is bit-identical for every worker count and the noise draws stay
// sequential on rng, so the released sequence depends only on (graph,
// epsilon, rng state).
func PrivateSequence(rng *rand.Rand, g *graph.Graph, epsilon float64) []int {
	est := PrivateSequenceFromDegrees(rng, g.Degrees(), g.NumNodes(), epsilon, DefaultOptions())
	out := make([]int, len(est))
	for i, v := range est {
		out[i] = int(v)
	}
	return out
}
