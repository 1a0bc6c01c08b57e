// Package dp provides the differential-privacy primitives used by AGM-DP:
// the Laplace, geometric and exponential mechanisms, smooth-sensitivity
// calibration, and a simple privacy-budget accountant supporting sequential
// and parallel composition.
//
// All randomness flows through an explicit *rand.Rand so that experiments are
// reproducible; NewRand constructs a suitably seeded source. The mechanisms
// implement pure ε-differential privacy except where noted (smooth sensitivity
// yields (ε, δ)-DP, as in Nissim et al.).
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// NewRand returns a deterministic pseudo-random source seeded with seed.
// Distinct seeds give independent streams; the same seed reproduces a run
// exactly, which the experiment harness relies on.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Laplace draws a sample from the Laplace distribution with mean zero and the
// given scale b (density 1/(2b)·exp(−|x|/b)). It panics if scale is not
// positive or not finite.
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		panic(fmt.Sprintf("dp: invalid Laplace scale %v", scale))
	}
	// Inverse-CDF sampling: u uniform on (-1/2, 1/2),
	// x = -b·sgn(u)·ln(1-2|u|).
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// LaplaceMechanism releases value under ε-differential privacy by adding
// Laplace noise with scale sensitivity/epsilon. Sensitivity is the L1 global
// sensitivity of the query. It panics if epsilon or sensitivity is not
// positive.
func LaplaceMechanism(rng *rand.Rand, value, sensitivity, epsilon float64) float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("dp: non-positive epsilon %v", epsilon))
	}
	if sensitivity <= 0 {
		panic(fmt.Sprintf("dp: non-positive sensitivity %v", sensitivity))
	}
	return value + Laplace(rng, sensitivity/epsilon)
}

// LaplaceVector releases a vector of query answers whose joint L1 sensitivity
// is sensitivity, adding independent Laplace noise with scale
// sensitivity/epsilon to every coordinate. The input slice is not modified.
func LaplaceVector(rng *rand.Rand, values []float64, sensitivity, epsilon float64) []float64 {
	out := make([]float64, len(values))
	scale := sensitivity / epsilon
	if epsilon <= 0 || sensitivity <= 0 {
		panic(fmt.Sprintf("dp: invalid LaplaceVector parameters sensitivity=%v epsilon=%v", sensitivity, epsilon))
	}
	for i, v := range values {
		out[i] = v + Laplace(rng, scale)
	}
	return out
}

// Clamp restricts x to the closed interval [lo, hi]. It is the post-processing
// step the paper applies to noisy counts before normalisation; clamping noisy
// outputs never affects the privacy guarantee.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("dp: Clamp bounds inverted: [%v, %v]", lo, hi))
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// NormalizeToDistribution rescales a vector of non-negative weights so that it
// sums to one. If every weight is zero (which can happen after clamping very
// noisy counts) it returns the uniform distribution, which is the convention
// used by the paper's estimators. The input is not modified.
func NormalizeToDistribution(weights []float64) []float64 {
	out := make([]float64, len(weights))
	sum := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("dp: NormalizeToDistribution requires non-negative weights")
		}
		sum += w
	}
	if sum == 0 {
		if len(out) > 0 {
			u := 1.0 / float64(len(out))
			for i := range out {
				out[i] = u
			}
		}
		return out
	}
	for i, w := range weights {
		out[i] = w / sum
	}
	return out
}
