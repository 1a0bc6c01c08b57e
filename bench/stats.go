package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of sorted,
// the smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the index percentile reads for n samples. The small slack
// keeps float rounding in p·n from pushing an exact rank up by one.
func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(idx, 0), n-1)
}

// beyond is the number of samples strictly after the p-th percentile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// quartiles returns the first quartile, median and third quartile of values
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(values, n=4), so spreads printed here match a reader's
// own check of the raw numbers.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	switch len(data) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return data[0], data[0], data[0]
	}
	ld := len(data)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of values (NaN when empty).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// sortedCopy returns values sorted ascending without touching the input.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}
