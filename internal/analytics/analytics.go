// Package analytics computes canonical metric bundles over stored graphs and
// caches them content-addressed. Because graph IDs are content hashes of the
// immutable binary CSR snapshot, a bundle is a pure function of
// (graph ID, bundle version): once computed it can be memoised forever, served
// from memory, persisted next to the snapshot and reloaded verbatim after a
// restart — the query-plan-cache shape from the ROADMAP, applied to graph
// analytics.
//
// The package also carries the serving-side utility evaluation of the paper:
// UtilityMetrics is the JSON projection of the Table 2–5 error columns
// (experiments.GraphMetrics), computed for an original/synthetic graph pair by
// Compare. Evaluation is pure post-processing of sampled graphs, so it spends
// no privacy budget.
package analytics

import (
	"sort"
	"time"

	"agmdp/internal/experiments"
	"agmdp/internal/graph"
)

// BundleVersion is the version stamped into every Bundle and every persisted
// .metrics file. Bump it whenever the bundle schema or the semantics of any
// field change: the cache treats a version mismatch as a miss and recomputes,
// so stale persisted bundles age out without manual intervention.
const BundleVersion = 1

// DegreeBucket is one row of the degree histogram: Count nodes have exactly
// Degree neighbours. Buckets are sorted by ascending degree so the encoded
// bundle is canonical (a map would serialise in random order).
type DegreeBucket struct {
	Degree int `json:"degree"`
	Count  int `json:"count"`
}

// Bundle is the canonical metric bundle for one stored graph: the structural
// statistics the paper's evaluation measures (degree distribution, triangle
// and wedge counts, both clustering coefficients) plus connectivity. All
// fields are deterministic functions of the graph at any worker count, so two
// computations of the same graph ID encode to identical bytes.
type Bundle struct {
	GraphID            string         `json:"graph_id"`
	Version            int            `json:"version"`
	Nodes              int            `json:"nodes"`
	Edges              int            `json:"edges"`
	Attributes         int            `json:"attributes"`
	MaxDegree          int            `json:"max_degree"`
	AverageDegree      float64        `json:"average_degree"`
	Triangles          int64          `json:"triangles"`
	Wedges             int64          `json:"wedges"`
	AvgLocalClustering float64        `json:"avg_local_clustering"`
	GlobalClustering   float64        `json:"global_clustering"`
	Components         int            `json:"components"`
	LargestComponent   int            `json:"largest_component"`
	DegreeHistogram    []DegreeBucket `json:"degree_histogram"`
}

// Compute builds the metric bundle for a graph. Its passes shard on the
// process-default worker count and the result is bit-identical for every
// count. observe, when non-nil, receives the wall-clock duration of each
// compute stage ("degrees", "structure", "components").
func Compute(id string, g *graph.Graph, observe func(stage string, d time.Duration)) *Bundle {
	mark := func(stage string, start time.Time) time.Time {
		now := time.Now()
		if observe != nil {
			observe(stage, now.Sub(start))
		}
		return now
	}

	start := time.Now()
	hist := g.DegreeHistogram()
	buckets := make([]DegreeBucket, 0, len(hist))
	for d, c := range hist {
		buckets = append(buckets, DegreeBucket{Degree: d, Count: c})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Degree < buckets[j].Degree })
	start = mark("degrees", start)

	s := g.Summarize()
	wedges := g.Wedges()
	start = mark("structure", start)

	comps := g.ConnectedComponents()
	largest := 0
	if len(comps) > 0 {
		largest = len(comps[0])
	}
	mark("components", start)

	return &Bundle{
		GraphID:            id,
		Version:            BundleVersion,
		Nodes:              s.Nodes,
		Edges:              s.Edges,
		Attributes:         s.Attributes,
		MaxDegree:          s.MaxDegree,
		AverageDegree:      s.AverageDegree,
		Triangles:          s.Triangles,
		Wedges:             wedges,
		AvgLocalClustering: s.AvgLocalClustering,
		GlobalClustering:   s.GlobalClustering,
		Components:         len(comps),
		LargestComponent:   largest,
		DegreeHistogram:    buckets,
	}
}

// UtilityMetrics is the JSON projection of the paper's Table 2–5 error
// columns (experiments.GraphMetrics): errors of a synthetic graph relative to
// its original.
type UtilityMetrics struct {
	MREThetaF           float64 `json:"mre_theta_f"`
	HellingerThetaF     float64 `json:"hellinger_theta_f"`
	KSDegree            float64 `json:"ks_degree"`
	HellingerDegree     float64 `json:"hellinger_degree"`
	MRETriangles        float64 `json:"mre_triangles"`
	MREAvgClustering    float64 `json:"mre_avg_clustering"`
	MREGlobalClustering float64 `json:"mre_global_clustering"`
	MREEdges            float64 `json:"mre_edges"`
}

// Compare computes the utility metrics of a synthetic graph against its
// original, each measured by experiments.Measure: a job that scores many
// samples against one original measures the original once.
func Compare(original, synthetic experiments.Measurement) UtilityMetrics {
	return fromGraphMetrics(original.Compare(synthetic))
}

// fromGraphMetrics converts the experiments struct (no JSON tags, column-name
// docs) into the wire form.
func fromGraphMetrics(m experiments.GraphMetrics) UtilityMetrics {
	return UtilityMetrics{
		MREThetaF:           m.MREThetaF,
		HellingerThetaF:     m.HellingerThetaF,
		KSDegree:            m.KSDegree,
		HellingerDegree:     m.HellingerDegree,
		MRETriangles:        m.MRETriangles,
		MREAvgClustering:    m.MREAvgClustering,
		MREGlobalClustering: m.MREGlobalClustering,
		MREEdges:            m.MREEdges,
	}
}

// AverageUtility returns the element-wise mean of a set of utility rows; it
// returns the zero value for an empty input.
func AverageUtility(ms []UtilityMetrics) UtilityMetrics {
	if len(ms) == 0 {
		return UtilityMetrics{}
	}
	var sum UtilityMetrics
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
	return UtilityMetrics{
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
