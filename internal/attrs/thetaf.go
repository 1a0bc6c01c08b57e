package attrs

import (
	"fmt"
	"math"
	"math/rand"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// EdgeConfigCounts returns Q_F, the number of edges connecting each unordered
// pair of node attribute configurations, indexed by EdgeConfig. Graphs with
// at least parallel.MinShardEdges edges are counted in shards on the
// process-default worker count, like NodeConfigCounts. Node ranges are split
// by degree weight (the CSR offsets are the prefix sum SplitWeighted wants),
// so a hub-heavy shard cannot dominate the wall clock on skewed graphs. The
// counts are bit-identical for every worker count.
func EdgeConfigCounts(g *graph.Graph) []float64 {
	w := g.NumAttributes()
	shards := parallel.SplitWeighted(g.RowOffsets(), parallel.Workers(g.NumEdges(), parallel.MinShardEdges))
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
	return sumCounts(partial, NumEdgeConfigs(w))
}

// TrueThetaF returns the exact attribute–edge correlation distribution ΘF of
// the input graph: ΘF(y) is the fraction of edges whose endpoint attribute
// pair encodes to y. A graph with no edges yields the uniform distribution.
func TrueThetaF(g *graph.Graph) []float64 {
	return dp.NormalizeToDistribution(EdgeConfigCounts(g))
}

// UniformThetaF returns the data-independent baseline used in Section 5.2 of
// the paper: every edge configuration is assigned equal probability.
func UniformThetaF(w int) []float64 {
	y := NumEdgeConfigs(w)
	out := make([]float64, y)
	for i := range out {
		out[i] = 1 / float64(y)
	}
	return out
}

// DefaultTruncationK returns the data-independent truncation heuristic
// k = n^{1/3} (rounded to the nearest integer) recommended by the paper
// (Section 3.1); it reproduces the per-dataset values quoted in Figure 1
// (k = 12 for Last.fm and Petster, 30 for Epinions, 84 for Pokec). Since n is
// public, deriving k from it does not consume privacy budget.
func DefaultTruncationK(n int) int {
	if n <= 0 {
		return 1
	}
	k := int(math.Round(math.Cbrt(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// clampNonNegative zeroes out negative noisy counts in place. Clamping is
// pure post-processing, so it never affects a privacy guarantee. Note that
// Algorithm 4 of the paper clamps counts to the range (0, n); because edge
// counts routinely exceed the node count n on real social graphs (m ≈ 3–7·n in
// Table 6), an upper clamp at n would systematically truncate the largest
// connection counts, so this implementation only clamps below at zero.
func clampNonNegative(noisy []float64) {
	for i, v := range noisy {
		if v < 0 {
			noisy[i] = 0
		}
	}
}

// ThetaFSensitivity returns the global L1 sensitivity of Q_F counted over
// µ(G, k): max(2k, 3). µ keeps an edge unless it falls among the first
// d(a) − k edges, in canonical order, at an endpoint a, so no deletion
// cascades. One edge toggle therefore changes µ(G, k) by at most three edges:
// itself and the edge it displaces at each endpoint. One node's attribute
// change moves the counts of its at most k kept edges, by 2 each. At k = 1 the
// toggle bound exceeds 2k: with G = {0–3, 1–2}, attributes (1, 0, 0, 1) and
// G′ = G + {1–3}, Q_F goes from [1 0 1] to [0 1 0].
func ThetaFSensitivity(k int) float64 {
	return float64(max(2*k, 3))
}

// LearnCorrelationsDP (Algorithm 4) releases an ε-differentially private
// estimate of ΘF using edge truncation: the input graph is projected onto the
// set of k-bounded graphs with µ(G, k), the connection counts Q_F are computed
// over the edges µ(G, k) keeps, independent Laplace noise with scale
// ThetaFSensitivity(k)/ε is added to each count (Proposition 1 gives 2k, which
// holds for k ≥ 2), and the noisy counts are clamped to be non-negative and
// normalised into a distribution. The counts come from one canonical pass
// (graph.ForEachTruncatedEdge); the truncated graph is never built.
func LearnCorrelationsDP(rng *rand.Rand, g *graph.Graph, epsilon float64, k int) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("attrs: non-positive epsilon %v", epsilon))
	}
	if k < 1 {
		panic(fmt.Sprintf("attrs: truncation parameter k=%d must be at least 1", k))
	}
	w := g.NumAttributes()
	counts := make([]float64, NumEdgeConfigs(w))
	g.ForEachTruncatedEdge(k, func(u, v int) {
		counts[EdgeConfig(g.Attr(u), g.Attr(v), w)]++
	})
	noisy := dp.LaplaceVector(rng, counts, ThetaFSensitivity(k), epsilon)
	clampNonNegative(noisy)
	return dp.NormalizeToDistribution(noisy)
}

// LearnCorrelationsSmooth releases ΘF under (ε, δ)-differential privacy using
// the direct smooth-sensitivity approach of Appendix B.1: the connection
// counts are computed on the untouched graph and perturbed with Laplace noise
// of scale 2·S*/ε, where S* is the β-smooth upper bound of Proposition 4 on
// the local sensitivity 2·dmax, with β = ε / (2·ln(1/δ)).
func LearnCorrelationsSmooth(rng *rand.Rand, g *graph.Graph, epsilon, delta float64) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("attrs: non-positive epsilon %v", epsilon))
	}
	beta := dp.SmoothBeta(epsilon, delta)
	n := float64(g.NumNodes())
	dmax := float64(g.MaxDegree())
	capValue := 2*n - 2
	if capValue < 2 {
		capValue = 2
	}
	local := 2 * dmax
	if local < 1 {
		local = 1 // degenerate edgeless graphs still need positive noise scale
	}
	smooth := dp.SmoothBoundLinear(local, 2, capValue, beta)
	counts := EdgeConfigCounts(g)
	noisy := make([]float64, len(counts))
	for i, c := range counts {
		noisy[i] = dp.SmoothLaplaceMechanism(rng, c, smooth, epsilon)
	}
	clampNonNegative(noisy)
	return dp.NormalizeToDistribution(noisy)
}

// LearnCorrelationsSampleAggregate releases ΘF under ε-differential privacy
// using the sample-and-aggregate approach of Appendix B.2: the nodes are
// partitioned uniformly at random into t = ⌊n/groupSize⌋ disjoint groups, the
// connection probabilities are computed on each node-induced subgraph, the
// per-group probabilities are averaged, and Laplace noise with sensitivity 2/t
// is added to each averaged probability before clamping to [0, 1] and
// re-normalising.
func LearnCorrelationsSampleAggregate(rng *rand.Rand, g *graph.Graph, epsilon float64, groupSize int) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("attrs: non-positive epsilon %v", epsilon))
	}
	if groupSize < 2 {
		panic(fmt.Sprintf("attrs: group size %d must be at least 2", groupSize))
	}
	n := g.NumNodes()
	t := n / groupSize
	if t < 1 {
		t = 1
	}
	w := g.NumAttributes()
	y := NumEdgeConfigs(w)

	// Random partition of the nodes into t groups of (roughly) equal size.
	perm := rng.Perm(n)
	avg := make([]float64, y)
	for group := 0; group < t; group++ {
		lo := group * n / t
		hi := (group + 1) * n / t
		sub, _ := g.InducedSubgraph(perm[lo:hi])
		probs := TrueThetaF(sub)
		if sub.NumEdges() == 0 {
			// An empty subgraph carries no correlation signal; treat its
			// contribution as uniform (TrueThetaF already returns uniform).
			probs = UniformThetaF(w)
		}
		for i := range avg {
			avg[i] += probs[i] / float64(t)
		}
	}
	sensitivity := 2 / float64(t)
	noisy := dp.LaplaceVector(rng, avg, sensitivity, epsilon)
	for i := range noisy {
		noisy[i] = dp.Clamp(noisy[i], 0, 1)
	}
	return dp.NormalizeToDistribution(noisy)
}

// LearnCorrelationsNaive releases ΘF with the naive Laplace baseline the paper
// plots as a reference (dashed line in Figure 5): Laplace noise with the
// worst-case global sensitivity 2n−2 is added to every connection count.
func LearnCorrelationsNaive(rng *rand.Rand, g *graph.Graph, epsilon float64) []float64 {
	if epsilon <= 0 {
		panic(fmt.Sprintf("attrs: non-positive epsilon %v", epsilon))
	}
	n := float64(g.NumNodes())
	sensitivity := 2*n - 2
	if sensitivity < 1 {
		sensitivity = 1
	}
	counts := EdgeConfigCounts(g)
	noisy := dp.LaplaceVector(rng, counts, sensitivity, epsilon)
	clampNonNegative(noisy)
	return dp.NormalizeToDistribution(noisy)
}
