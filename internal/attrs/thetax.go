package attrs

import (
	"fmt"
	"math/rand"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// ThetaXSensitivity is the L1 global sensitivity of the node-configuration
// count vector Q_X: changing one node's attribute vector decreases one count
// by one and increases another by one, and edge changes have no effect.
const ThetaXSensitivity = 2.0

// NodeConfigCounts returns Q_X, the number of nodes with each attribute
// configuration, indexed by NodeConfig. Graphs with at least
// parallel.MinShardEdges nodes are counted in shards on the process-default
// worker count. Each shard accumulates a private histogram and the partials
// are summed in shard order; integer-valued float64 sums are exact well
// below 2^53, so the counts are bit-identical for every worker count.
func NodeConfigCounts(g *graph.Graph) []float64 {
	n, w := g.NumNodes(), g.NumAttributes()
	shards := parallel.Split(n, parallel.Workers(n, parallel.MinShardEdges))
	partial := make([][]float64, len(shards))
	parallel.Do(len(shards), func(s int) {
		counts := make([]float64, NumNodeConfigs(w))
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
			counts[NodeConfig(g.Attr(i), w)]++
		}
		partial[s] = counts
	})
	return sumCounts(partial, NumNodeConfigs(w))
}

// sumCounts adds the shards' partial histograms into the first, in shard
// order. With no shards it returns size zero counts.
func sumCounts(partial [][]float64, size int) []float64 {
	if len(partial) == 0 {
		return make([]float64, size)
	}
	counts := partial[0]
	for _, p := range partial[1:] {
		for i, v := range p {
			counts[i] += v
		}
	}
	return counts
}

// TrueThetaX returns the exact attribute distribution ΘX of the input graph:
// ΘX(y) is the fraction of nodes whose attribute vector encodes to y.
func TrueThetaX(g *graph.Graph) []float64 {
	return dp.NormalizeToDistribution(NodeConfigCounts(g))
}

// LearnAttributesDP (Algorithm 5) releases an ε-differentially private
// estimate of ΘX: it computes the node-configuration counts, perturbs each
// with Laplace noise of scale 2/ε, clamps the noisy counts to [0, n] and
// normalises them into a distribution. The noise draws are sequential on rng
// in index order, so the estimate depends only on (graph, epsilon, rng
// state), never on how many workers counted.
func LearnAttributesDP(rng *rand.Rand, g *graph.Graph, epsilon float64) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("attrs: non-positive epsilon %v", epsilon))
	}
	noisy := dp.LaplaceVector(rng, NodeConfigCounts(g), ThetaXSensitivity, epsilon)
	n := float64(g.NumNodes())
	for i := range noisy {
		noisy[i] = dp.Clamp(noisy[i], 0, n)
	}
	return dp.NormalizeToDistribution(noisy)
}

// SampleAttributes draws a fresh attribute vector for each of n nodes
// independently from the (possibly noisy) distribution thetaX, as the AGM-DP
// synthesis step does after learning Θ̃X. The result is indexed by node ID.
func SampleAttributes(rng *rand.Rand, thetaX []float64, n, w int) []graph.AttrVector {
	if len(thetaX) != NumNodeConfigs(w) {
		panic(fmt.Sprintf("attrs: thetaX has %d entries, want %d for w=%d", len(thetaX), NumNodeConfigs(w), w))
	}
	out := make([]graph.AttrVector, n)
	for i := 0; i < n; i++ {
		out[i] = ConfigToVector(SampleIndex(rng, thetaX), w)
	}
	return out
}
