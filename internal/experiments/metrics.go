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
// synthetic graph relative to the input graph.
type GraphMetrics struct {
	// MREThetaF is the mean relative error of the attribute–edge correlation
	// probabilities (column ΘF).
	MREThetaF float64
	// HellingerThetaF is the Hellinger distance between correlation
	// distributions (column HΘF).
	HellingerThetaF float64
	// KSDegree is the Kolmogorov–Smirnov statistic between degree
	// distributions (column KS_S).
	KSDegree float64
	// HellingerDegree is the Hellinger distance between degree distributions
	// (column H_S).
	HellingerDegree float64
	// MRETriangles is the relative error of the triangle count (column n∆).
	MRETriangles float64
	// MREAvgClustering is the relative error of the average local clustering
	// coefficient (column C̄).
	MREAvgClustering float64
	// MREGlobalClustering is the relative error of the global clustering
	// coefficient / transitivity (column C).
	MREGlobalClustering float64
	// MREEdges is the relative error of the edge count (column m).
	MREEdges float64
}

// CompareGraphs computes the Table 2–5 error columns for a synthetic graph
// against its input graph. The triangle count and both clustering
// coefficients come from one Summarize per graph, so each graph's triangles
// are counted once.
func CompareGraphs(original, synthetic *graph.Graph) GraphMetrics {
	origTheta := attrs.TrueThetaF(original)
	synthTheta := attrs.TrueThetaF(synthetic)
	origDegrees := original.DegreeSequence()
	synthDegrees := synthetic.DegreeSequence()
	orig, synth := original.Summarize(), synthetic.Summarize()
	return GraphMetrics{
		MREThetaF:           stats.MeanAbsoluteError(origTheta, synthTheta),
		HellingerThetaF:     stats.HellingerDistance(origTheta, synthTheta),
		KSDegree:            stats.DegreeKS(origDegrees, synthDegrees),
		HellingerDegree:     stats.DegreeHellinger(origDegrees, synthDegrees),
		MRETriangles:        stats.RelativeError(float64(orig.Triangles), float64(synth.Triangles)),
		MREAvgClustering:    stats.RelativeError(orig.AvgLocalClustering, synth.AvgLocalClustering),
		MREGlobalClustering: stats.RelativeError(orig.GlobalClustering, synth.GlobalClustering),
		MREEdges:            stats.RelativeError(float64(original.NumEdges()), float64(synthetic.NumEdges())),
	}
}

// average returns the element-wise mean of a set of metric rows.
func average(ms []GraphMetrics) GraphMetrics {
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
