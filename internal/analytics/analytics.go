// Package analytics computes canonical metric bundles over stored graphs and
// caches them content-addressed. Because graph IDs are content hashes of the
// immutable binary CSR snapshot, a bundle is a pure function of
// (graph ID, bundle version): once computed it can be memoised forever, served
// from memory, persisted next to the snapshot and reloaded verbatim after a
// restart — the query-plan-cache shape from the ROADMAP, applied to graph
// analytics.
package analytics

import (
	"sort"
	"time"

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
