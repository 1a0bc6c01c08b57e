package attrs

// Sharded accumulation of the fitting pipeline's two histograms: the
// node-configuration counts Q_X behind Θ̃X and the edge-configuration counts
// Q_F behind Θ̃F. Both are pure integer counts, so the parallel versions are
// bit-identical to the sequential loops for every worker count: each shard
// accumulates a private partial histogram and the partials are reduced in
// shard-index order (integer-valued float64 sums are exact well below 2^53,
// so even the reduction order is immaterial — it is fixed anyway). Noise
// injection stays sequential in the callers, which is what keeps a private
// fit reproducible per (seed, epsilon) regardless of the worker count.

import (
	"math/rand"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// NodeConfigCountsWith is NodeConfigCounts with an explicit worker count
// (≤ 0 selects the process default). Graphs below the sharding threshold are
// counted sequentially. The result is bit-identical to NodeConfigCounts for
// every worker count.
func NodeConfigCountsWith(g *graph.Graph, workers int) []float64 {
	n := g.NumNodes()
	workers = parallel.Resolve(workers)
	if workers == 1 || n < parallel.MinShardEdges {
		return NodeConfigCounts(g)
	}
	w := g.NumAttributes()
	shards := parallel.Split(n, workers)
	partial := make([][]float64, len(shards))
	parallel.Do(len(shards), func(s int) {
		counts := make([]float64, NumNodeConfigs(w))
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
			counts[NodeConfig(g.Attr(i), w)]++
		}
		partial[s] = counts
	})
	counts := partial[0]
	for s := 1; s < len(partial); s++ {
		for i, v := range partial[s] {
			counts[i] += v
		}
	}
	return counts
}

// EdgeConfigCountsWith is EdgeConfigCounts with an explicit worker count
// (≤ 0 selects the process default). Node ranges are split by degree weight
// (the CSR offsets are the prefix sum SplitWeighted wants), so a hub-heavy
// shard cannot dominate the wall clock on skewed graphs. Graphs below the
// sharding threshold are counted sequentially. The result is bit-identical
// to EdgeConfigCounts for every worker count.
func EdgeConfigCountsWith(g *graph.Graph, workers int) []float64 {
	workers = parallel.Resolve(workers)
	if workers == 1 || g.NumEdges() < parallel.MinShardEdges {
		return EdgeConfigCounts(g)
	}
	w := g.NumAttributes()
	shards := parallel.SplitWeighted(g.RowOffsets(), workers)
	partial := make([][]float64, len(shards))
	parallel.Do(len(shards), func(s int) {
		counts := make([]float64, NumEdgeConfigs(w))
		for u := shards[s].Lo; u < shards[s].Hi; u++ {
			au := g.Attr(u)
			for _, v := range g.NeighborsView(u) {
				if int(v) > u {
					counts[EdgeConfig(au, g.Attr(int(v)), w)]++
				}
			}
		}
		partial[s] = counts
	})
	counts := partial[0]
	for s := 1; s < len(partial); s++ {
		for i, v := range partial[s] {
			counts[i] += v
		}
	}
	return counts
}

// TrueThetaXWith is TrueThetaX with an explicit worker count for the counting
// pass; identical results for every worker count.
func TrueThetaXWith(g *graph.Graph, workers int) []float64 {
	return dp.NormalizeToDistribution(NodeConfigCountsWith(g, workers))
}

// TrueThetaFWith is TrueThetaF with an explicit worker count for the counting
// pass; identical results for every worker count.
func TrueThetaFWith(g *graph.Graph, workers int) []float64 {
	return dp.NormalizeToDistribution(EdgeConfigCountsWith(g, workers))
}

// LearnAttributesDPWith is LearnAttributesDP with an explicit worker count
// for the counting pass. The Laplace draws stay sequential on rng in index
// order, so the released estimate depends only on (graph, epsilon, rng
// state), never on the worker count.
func LearnAttributesDPWith(rng *rand.Rand, g *graph.Graph, epsilon float64, workers int) []float64 {
	return learnAttributesDP(rng, g, epsilon, NodeConfigCountsWith(g, workers))
}

// LearnCorrelationsDPWith is LearnCorrelationsDP for callers that thread one
// worker count through every fit stage. The count over µ(G, k) is a single
// sequential canonical pass, so workers does not change the work or the
// released estimate.
func LearnCorrelationsDPWith(rng *rand.Rand, g *graph.Graph, epsilon float64, k, workers int) []float64 {
	return LearnCorrelationsDP(rng, g, epsilon, k)
}
