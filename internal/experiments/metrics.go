// Package experiments contains the drivers that regenerate every table and
// figure of the paper's evaluation (Tables 2–6 and Figures 1, 2, 3, 5) on the
// calibrated synthetic datasets of package datasets. Each driver returns
// structured results as well as a plain-text rendering so it can be used both
// from the CLI (cmd/agmdp-experiments) and from the benchmark harness
// (bench_test.go).
package experiments

import (
	"agmdp/internal/attrs"
	"agmdp/internal/graph"
	"agmdp/internal/stats"
)

// GraphMetrics holds the eight error columns of Tables 2–5: errors of the
// synthetic graph relative to the input graph. Its JSON form is the row an
// evaluate job reports per sample and on average.
type GraphMetrics struct {
	// MREThetaF is the mean relative error of the attribute–edge correlation
	// probabilities (column ΘF).
	MREThetaF float64 `json:"mre_theta_f"`
	// HellingerThetaF is the Hellinger distance between correlation
	// distributions (column HΘF).
	HellingerThetaF float64 `json:"hellinger_theta_f"`
	// KSDegree is the Kolmogorov–Smirnov statistic between degree
	// distributions (column KS_S).
	KSDegree float64 `json:"ks_degree"`
	// HellingerDegree is the Hellinger distance between degree distributions
	// (column H_S).
	HellingerDegree float64 `json:"hellinger_degree"`
	// MRETriangles is the relative error of the triangle count (column n∆).
	MRETriangles float64 `json:"mre_triangles"`
	// MREAvgClustering is the relative error of the average local clustering
	// coefficient (column C̄).
	MREAvgClustering float64 `json:"mre_avg_clustering"`
	// MREGlobalClustering is the relative error of the global clustering
	// coefficient / transitivity (column C).
	MREGlobalClustering float64 `json:"mre_global_clustering"`
	// MREEdges is the relative error of the edge count (column m).
	MREEdges float64 `json:"mre_edges"`
}

// Measurement holds what CompareGraphs measures of one graph. Measuring an
// input once and comparing every synthetic graph against that measurement
// gives bit-for-bit the same metrics as CompareGraphs on each pair.
type Measurement struct {
	thetaF  []float64
	degrees []int
	// Summary carries the graph's size, triangle count and both clustering
	// coefficients.
	Summary graph.Summary
}

// Measure takes the measurements of g that the error columns compare: Θ_F,
// the degree sequence, and one Summarize, so g's triangles are counted once.
func Measure(g *graph.Graph) Measurement {
	return Measurement{thetaF: attrs.TrueThetaF(g), degrees: g.DegreeSequence(), Summary: g.Summarize()}
}

// Compare computes the Table 2–5 error columns of a synthetic graph's
// measurement against this (the input graph's) measurement.
func (orig Measurement) Compare(synth Measurement) GraphMetrics {
	o, s := orig.Summary, synth.Summary
	return GraphMetrics{
		MREThetaF:           stats.MeanAbsoluteError(orig.thetaF, synth.thetaF),
		HellingerThetaF:     stats.HellingerDistance(orig.thetaF, synth.thetaF),
		KSDegree:            stats.DegreeKS(orig.degrees, synth.degrees),
		HellingerDegree:     stats.DegreeHellinger(orig.degrees, synth.degrees),
		MRETriangles:        stats.RelativeError(float64(o.Triangles), float64(s.Triangles)),
		MREAvgClustering:    stats.RelativeError(o.AvgLocalClustering, s.AvgLocalClustering),
		MREGlobalClustering: stats.RelativeError(o.GlobalClustering, s.GlobalClustering),
		MREEdges:            stats.RelativeError(float64(o.Edges), float64(s.Edges)),
	}
}

// CompareGraphs computes the Table 2–5 error columns for a synthetic graph
// against its input graph.
func CompareGraphs(original, synthetic *graph.Graph) GraphMetrics {
	return Measure(original).Compare(Measure(synthetic))
}

// Average returns the element-wise mean of a set of metric rows; it returns
// the zero value for an empty input.
func Average(ms []GraphMetrics) GraphMetrics {
	if len(ms) == 0 {
		return GraphMetrics{}
	}
	var sum GraphMetrics
	for _, m := range ms {
		sum.MREThetaF += m.MREThetaF
		sum.HellingerThetaF += m.HellingerThetaF
		sum.KSDegree += m.KSDegree
		sum.HellingerDegree += m.HellingerDegree
		sum.MRETriangles += m.MRETriangles
		sum.MREAvgClustering += m.MREAvgClustering
		sum.MREGlobalClustering += m.MREGlobalClustering
		sum.MREEdges += m.MREEdges
	}
	n := float64(len(ms))
	return GraphMetrics{
		MREThetaF:           sum.MREThetaF / n,
		HellingerThetaF:     sum.HellingerThetaF / n,
		KSDegree:            sum.KSDegree / n,
		HellingerDegree:     sum.HellingerDegree / n,
		MRETriangles:        sum.MRETriangles / n,
		MREAvgClustering:    sum.MREAvgClustering / n,
		MREGlobalClustering: sum.MREGlobalClustering / n,
		MREEdges:            sum.MREEdges / n,
	}
}
