package graph

import (
	"sync/atomic"

	"agmdp/internal/parallel"
)

// Sharding thresholds: below these sizes the goroutine fan-out and per-worker
// state cost more than the work itself, so a pass runs on one worker, inline.
const (
	// minShardEdges gates the triangle-family passes (Triangles,
	// LocalClusteringAll, the max common-neighbour scan), whose cost scales
	// with the edge count.
	minShardEdges = parallel.MinShardEdges
	// minShardNodes gates the per-node passes (Degrees, Wedges,
	// DegreeHistogram), whose cost is a few instructions per node.
	minShardNodes = 1 << 14
)

// Every analytic in this file follows the same deterministic map-reduce
// shape: split the node range into shards (degree-weighted with
// parallel.SplitWeighted over the CSR offsets where the cost follows the
// edges, so hub-heavy graphs still balance), compute each shard's partial
// result into its own slot, and reduce the slots in shard-index order. All
// partials are integer counts, so the reduction is exact and the result is
// bit-identical for every worker count — which is why every caller gets the
// sharded pass at the process default without weakening any determinism
// contract. One shard runs inline in the caller (parallel.Do), so a pass
// below its threshold is the plain sequential loop.

// Degrees returns the degree of every node, indexed by node ID. Shards write
// disjoint slices of the result, so no merge is needed.
func (g *Graph) Degrees() []int {
	n := len(g.attrs)
	out := make([]int, n)
	shards := parallel.Split(n, parallel.Workers(n, minShardNodes))
	parallel.Do(len(shards), func(s int) {
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
			out[i] = int(g.offsets[i+1] - g.offsets[i])
		}
	})
	return out
}

// Wedges returns n_W, the number of length-two paths (wedges) in the graph:
// Σ_i d_i·(d_i−1)/2.
func (g *Graph) Wedges() int64 {
	n := len(g.attrs)
	shards := parallel.Split(n, parallel.Workers(n, minShardNodes))
	partial := make([]int64, len(shards))
	parallel.Do(len(shards), func(s int) {
		var sum int64
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
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

// DegreeHistogram returns a map from degree value to the number of nodes with
// that degree. Shards build private histograms that are summed per degree
// value; integer addition makes the merged map independent of the worker
// count.
func (g *Graph) DegreeHistogram() map[int]int {
	n := len(g.attrs)
	shards := parallel.Split(n, parallel.Workers(n, minShardNodes))
	if len(shards) == 0 {
		return make(map[int]int)
	}
	partial := make([]map[int]int, len(shards))
	parallel.Do(len(shards), func(s int) {
		h := make(map[int]int)
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
			h[int(g.offsets[i+1]-g.offsets[i])]++
		}
		partial[s] = h
	})
	out := partial[0]
	for _, h := range partial[1:] {
		for d, c := range h {
			out[d] += c
		}
	}
	return out
}

// LocalClusteringAll returns the local clustering coefficient C_i of every
// node, indexed by node ID: the fraction of pairs of neighbours of i that are
// themselves connected (0 for nodes of degree < 2). It counts triangles along
// edges once instead of per node. With several workers, they accumulate
// triangle credits into one shared counter array with atomic adds: integer
// addition is exact and commutative, so whatever order the increments land
// in, every node ends with the same count — and therefore the same
// coefficient — bit-identically, for every worker count. The shared array
// keeps the pass at O(n) auxiliary memory where per-worker counters would
// cost O(workers·n) on large graphs.
func (g *Graph) LocalClusteringAll() []float64 {
	n := len(g.attrs)
	counts := make([]int64, n)
	workers := parallel.Workers(g.m, minShardEdges)
	shards := parallel.SplitWeighted(g.offsets, workers)
	shared := len(shards) > 1
	parallel.Do(len(shards), func(s int) {
		for u := shards[s].Lo; u < shards[s].Hi; u++ {
			g.creditTrianglesAlongEdges(u, counts, shared)
		}
	})
	out := make([]float64, n)
	// Finish the coefficients over plain node ranges; the counters are
	// settled (parallel.Do is a full barrier), so these are plain reads.
	merge := parallel.Split(n, workers)
	parallel.Do(len(merge), func(s int) {
		for i := merge[s].Lo; i < merge[s].Hi; i++ {
			d := int(g.offsets[i+1] - g.offsets[i])
			if d < 2 {
				continue
			}
			out[i] = 2 * float64(counts[i]) / (float64(d) * float64(d-1))
		}
	})
	return out
}

// creditTrianglesAlongEdges walks node u's edges {u, v} with v > u and
// credits every common neighbour w of u and v with the triangle {u, v, w}.
// Each triangle is credited to each of its three corners exactly once (when
// the opposite edge is processed), whichever shard that edge lands in.
// shared selects atomic increments, for a counter array other workers write
// too; a single worker pays no atomic overhead.
func (g *Graph) creditTrianglesAlongEdges(u int, counts []int64, shared bool) {
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
				if shared {
					atomic.AddInt64(&counts[a], 1)
				} else {
					counts[a]++
				}
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

// Summarize computes the Table 6 statistics for the graph. It computes the
// triangle count and wedge count once and derives both clustering statistics
// from them, instead of re-running the triangle pass per statistic.
func (g *Graph) Summarize() Summary {
	tri := g.Triangles()
	wedges := g.Wedges()
	cc := g.LocalClusteringAll()
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
