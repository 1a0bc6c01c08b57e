package graph

import (
	"sync/atomic"

	"agmdp/internal/parallel"
)

// Sequential-fallback thresholds: below these sizes the goroutine fan-out and
// per-worker state cost more than the work itself, so the *With analytics run
// the sequential implementations regardless of the requested worker count.
const (
	// minShardEdges gates the triangle-family analytics (Triangles,
	// LocalClusteringAll), whose cost scales with the edge count.
	minShardEdges = parallel.MinShardEdges
	// minShardNodes gates the per-node analytics (Degrees, Wedges,
	// DegreeHistogram), whose cost is a few instructions per node.
	minShardNodes = 1 << 14
)

// Every sharded analytic in this file follows the same deterministic
// map-reduce shape: split the node range into degree-weighted shards
// (parallel.SplitWeighted over the CSR offsets, so hub-heavy graphs still
// balance), compute each shard's partial result into its own slot, and reduce
// the slots in shard-index order. All partials are integer counts, so the
// reduction is exact and the result is bit-identical to the sequential
// implementation for every worker count — which is why the parallel paths can
// be the default everywhere without weakening any determinism contract.

// LocalClusteringAllWith is LocalClusteringAll with an explicit worker count
// (≤ 0 selects the process default). Workers accumulate triangle credits into
// one shared counter array with atomic adds: integer addition is exact and
// commutative, so whatever order the workers' increments land in, every node
// ends with the same count — and therefore the same coefficient — as the
// sequential pass, bit-identically, for every worker count. The shared array
// keeps the pass at O(n) auxiliary memory where per-worker counters would
// cost O(workers·n) on large graphs.
func (g *Graph) LocalClusteringAllWith(workers int) []float64 {
	n := len(g.attrs)
	workers = parallel.Resolve(workers)
	if workers <= 1 || g.m < minShardEdges {
		return g.localClusteringAllSeq()
	}
	shards := parallel.SplitWeighted(g.offsets, workers)
	counts := make([]int64, n)
	parallel.Do(len(shards), func(s int) {
		r := shards[s]
		for u := r.Lo; u < r.Hi; u++ {
			g.creditTrianglesAlongEdgesAtomic(u, counts)
		}
	})
	out := make([]float64, n)
	// Finish the coefficients over plain node ranges; the counters are
	// settled (parallel.Do is a full barrier), so these are plain reads.
	merge := parallel.Split(n, workers)
	parallel.Do(len(merge), func(s int) {
		r := merge[s]
		for i := r.Lo; i < r.Hi; i++ {
			d := int(g.offsets[i+1] - g.offsets[i])
			if d < 2 {
				continue
			}
			out[i] = 2 * float64(counts[i]) / (float64(d) * float64(d-1))
		}
	})
	return out
}

// creditTrianglesAlongEdgesAtomic is creditTrianglesAlongEdges against a
// counter array shared between workers: the increment is atomic, everything
// else is identical. Kept separate so the sequential pass pays no atomic
// overhead.
func (g *Graph) creditTrianglesAlongEdgesAtomic(u int, counts []int64) {
	ru := g.row(u)
	for _, v32 := range ru {
		v := int(v32)
		if u >= v {
			continue
		}
		rv := g.row(v)
		i, j := 0, 0
		for i < len(ru) && j < len(rv) {
			a, b := ru[i], rv[j]
			if a == b {
				atomic.AddInt64(&counts[a], 1)
				i++
				j++
			} else if a < b {
				i++
			} else {
				j++
			}
		}
	}
}

// creditTrianglesAlongEdges walks node u's edges {u, v} with v > u and
// credits every common neighbour w of u and v with the triangle {u, v, w}.
// Each triangle is credited to each of its three corners exactly once (when
// the opposite edge is processed), whichever shard that edge lands in.
func (g *Graph) creditTrianglesAlongEdges(u int, counts []int64) {
	ru := g.row(u)
	for _, v32 := range ru {
		v := int(v32)
		if u >= v {
			continue
		}
		rv := g.row(v)
		i, j := 0, 0
		for i < len(ru) && j < len(rv) {
			a, b := ru[i], rv[j]
			if a == b {
				counts[a]++
				i++
				j++
			} else if a < b {
				i++
			} else {
				j++
			}
		}
	}
}

// WedgesWith is Wedges with an explicit worker count (≤ 0 selects the
// process default).
func (g *Graph) WedgesWith(workers int) int64 {
	n := len(g.attrs)
	workers = parallel.Resolve(workers)
	if workers <= 1 || n < minShardNodes {
		return g.wedgesSeq()
	}
	shards := parallel.Split(n, workers)
	partial := make([]int64, len(shards))
	parallel.Do(len(shards), func(s int) {
		var sum int64
		r := shards[s]
		for i := r.Lo; i < r.Hi; i++ {
			d := g.offsets[i+1] - g.offsets[i]
			sum += d * (d - 1) / 2
		}
		partial[s] = sum
	})
	var total int64
	for _, p := range partial {
		total += p
	}
	return total
}

// DegreesWith is Degrees with an explicit worker count (≤ 0 selects the
// process default). Shards write disjoint slices of the result, so no merge
// is needed.
func (g *Graph) DegreesWith(workers int) []int {
	n := len(g.attrs)
	out := make([]int, n)
	workers = parallel.Resolve(workers)
	if workers <= 1 || n < minShardNodes {
		for i := range out {
			out[i] = int(g.offsets[i+1] - g.offsets[i])
		}
		return out
	}
	shards := parallel.Split(n, workers)
	parallel.Do(len(shards), func(s int) {
		r := shards[s]
		for i := r.Lo; i < r.Hi; i++ {
			out[i] = int(g.offsets[i+1] - g.offsets[i])
		}
	})
	return out
}

// DegreeHistogramWith is DegreeHistogram with an explicit worker count (≤ 0
// selects the process default). Shards build private histograms that are
// summed per degree value; integer addition makes the merged map independent
// of the worker count.
func (g *Graph) DegreeHistogramWith(workers int) map[int]int {
	n := len(g.attrs)
	workers = parallel.Resolve(workers)
	if workers <= 1 || n < minShardNodes {
		return g.degreeHistogramSeq()
	}
	shards := parallel.Split(n, workers)
	partial := make([]map[int]int, len(shards))
	parallel.Do(len(shards), func(s int) {
		h := make(map[int]int)
		r := shards[s]
		for i := r.Lo; i < r.Hi; i++ {
			h[int(g.offsets[i+1]-g.offsets[i])]++
		}
		partial[s] = h
	})
	out := make(map[int]int)
	for _, h := range partial {
		for d, c := range h {
			out[d] += c
		}
	}
	return out
}

// SummarizeWith is Summarize with an explicit worker count (≤ 0 selects the
// process default). It computes the triangle count and wedge count once and
// derives both clustering statistics from them, instead of re-running the
// triangle pass per statistic.
func (g *Graph) SummarizeWith(workers int) Summary {
	tri := g.TrianglesWith(workers)
	wedges := g.WedgesWith(workers)
	cc := g.LocalClusteringAllWith(workers)
	avg := 0.0
	if len(cc) > 0 {
		sum := 0.0
		for _, c := range cc {
			sum += c
		}
		avg = sum / float64(len(cc))
	}
	global := 0.0
	if wedges > 0 {
		global = 3 * float64(tri) / float64(wedges)
	}
	return Summary{
		Nodes:              g.NumNodes(),
		Edges:              g.NumEdges(),
		MaxDegree:          g.MaxDegree(),
		AverageDegree:      g.AverageDegree(),
		Triangles:          tri,
		AvgLocalClustering: avg,
		GlobalClustering:   global,
		Attributes:         g.NumAttributes(),
	}
}
