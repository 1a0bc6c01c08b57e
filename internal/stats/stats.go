// Package stats provides the evaluation statistics used in Section 5.1 of the
// paper to compare synthetic graphs against their inputs: the
// Kolmogorov–Smirnov statistic and Hellinger distance between degree
// distributions, the Hellinger distance and mean absolute error between
// attribute-correlation distributions, relative errors for scalar statistics,
// and complementary-cumulative-distribution (CCDF) utilities for plotting
// degree and clustering-coefficient distributions (Figures 2–3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// RelativeError returns |estimate − truth| / |truth|. When the true value is
// zero it returns 0 if the estimate is also zero and |estimate| otherwise,
// mirroring the convention used in the paper's tables (the MRE of a quantity
// whose true value is zero is reported as the absolute error).
func RelativeError(truth, estimate float64) float64 {
	if truth == 0 {
		if estimate == 0 {
			return 0
		}
		return math.Abs(estimate)
	}
	return math.Abs(estimate-truth) / math.Abs(truth)
}

// MeanAbsoluteError returns the mean of |a_i − b_i| over paired slices. It
// panics if the slices have different lengths or are empty.
func MeanAbsoluteError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: MAE over slices of different lengths %d, %d", len(a), len(b)))
	}
	if len(a) == 0 {
		panic("stats: MAE over empty slices")
	}
	total := 0.0
	for i := range a {
		total += math.Abs(a[i] - b[i])
	}
	return total / float64(len(a))
}

// HellingerDistance returns the Hellinger distance between two discrete
// probability distributions over the same index set:
//
//	H(P, Q) = (1/√2) · √( Σ_i (√p_i − √q_i)² )
//
// The result lies in [0, 1]; 0 means identical distributions.
func HellingerDistance(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: Hellinger over distributions of different lengths %d, %d", len(p), len(q)))
	}
	sum := 0.0
	for i := range p {
		if p[i] < 0 || q[i] < 0 {
			panic("stats: Hellinger over negative probabilities")
		}
		d := math.Sqrt(p[i]) - math.Sqrt(q[i])
		sum += d * d
	}
	return math.Sqrt(sum) / math.Sqrt2
}

// DegreeDistribution converts a degree multiset into a probability
// distribution indexed by degree value (0..maxDegree).
func DegreeDistribution(degrees []int) []float64 {
	maxDeg := 0
	for _, d := range degrees {
		if d < 0 {
			panic("stats: negative degree")
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	dist := make([]float64, maxDeg+1)
	if len(degrees) == 0 {
		return dist
	}
	for _, d := range degrees {
		dist[d]++
	}
	for i := range dist {
		dist[i] /= float64(len(degrees))
	}
	return dist
}

// DegreeHellinger returns the Hellinger distance H_S between the degree
// distributions induced by two degree multisets, padding the shorter support
// with zeros (Section 5.1 of the paper).
func DegreeHellinger(a, b []int) float64 {
	da := DegreeDistribution(a)
	db := DegreeDistribution(b)
	if len(da) < len(db) {
		da = append(da, make([]float64, len(db)-len(da))...)
	}
	if len(db) < len(da) {
		db = append(db, make([]float64, len(da)-len(db))...)
	}
	return HellingerDistance(da, db)
}

// KolmogorovSmirnov returns the KS statistic between the empirical cumulative
// distribution functions of two samples: the maximum absolute difference
// between the two CDFs. Both samples must be non-empty.
func KolmogorovSmirnov(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KS over an empty sample")
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	maxDiff := 0.0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		var x float64
		if sa[i] <= sb[j] {
			x = sa[i]
		} else {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if d := math.Abs(fa - fb); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff
}

// DegreeKS returns the KS statistic between the degree distributions of two
// degree multisets, matching the KS_S column of the paper's tables.
func DegreeKS(a, b []int) float64 {
	fa := make([]float64, len(a))
	fb := make([]float64, len(b))
	for i, d := range a {
		fa[i] = float64(d)
	}
	for i, d := range b {
		fb[i] = float64(d)
	}
	return KolmogorovSmirnov(fa, fb)
}

// CCDFPoint is one point of a complementary cumulative distribution function:
// Fraction is the proportion of samples strictly greater than Value.
type CCDFPoint struct {
	Value    float64
	Fraction float64
}

// CCDF computes the complementary cumulative distribution of a sample at each
// distinct sample value, as plotted on the y-axes of Figures 2 and 3.
func CCDF(samples []float64) []CCDFPoint {
	if len(samples) == 0 {
		return nil
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := float64(len(s))
	var points []CCDFPoint
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		points = append(points, CCDFPoint{Value: s[i], Fraction: float64(len(s)-j) / n})
		i = j
	}
	return points
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of a sample using the
// nearest-rank method. It panics on an empty sample or q outside [0, 1].
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0, 1]", q))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
