package attrs

import (
	"math"
	"math/rand"
	"testing"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// homophilousGraph builds a random attributed graph in which nodes with equal
// attribute configurations are considerably more likely to connect, so that
// ΘF carries real signal for the estimators to recover.
func homophilousGraph(seed int64, n, w int, pSame, pDiff float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, w)
	for i := 0; i < n; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(NumNodeConfigs(w))))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pDiff
			if NodeConfig(b.Attr(i), w) == NodeConfig(b.Attr(j), w) {
				p = pSame
			}
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Finalize()
}

func meanAbsError(a, b []float64) float64 {
	total := 0.0
	for i := range a {
		total += math.Abs(a[i] - b[i])
	}
	return total / float64(len(a))
}

func isDistribution(p []float64) bool {
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1+1e-9 {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) < 1e-9
}

func TestEdgeConfigCountsSumToEdgeCount(t *testing.T) {
	g := homophilousGraph(1, 120, 2, 0.2, 0.02)
	counts := EdgeConfigCounts(g)
	sum := 0.0
	for _, c := range counts {
		sum += c
	}
	if int(sum) != g.NumEdges() {
		t.Fatalf("counts sum to %v, want %d edges", sum, g.NumEdges())
	}
	if len(counts) != NumEdgeConfigs(2) {
		t.Fatalf("counts length = %d, want %d", len(counts), NumEdgeConfigs(2))
	}
}

func TestTrueThetaFIsDistributionAndReflectsHomophily(t *testing.T) {
	g := homophilousGraph(2, 200, 1, 0.25, 0.02)
	theta := TrueThetaF(g)
	if !isDistribution(theta) {
		t.Fatalf("TrueThetaF is not a distribution: %v", theta)
	}
	// With strong homophily, same-configuration edges (indices for pairs
	// (0,0) and (1,1)) should dominate the mixed configuration (0,1).
	same := theta[EdgeConfig(0, 0, 1)] + theta[EdgeConfig(1, 1, 1)]
	mixed := theta[EdgeConfig(0, 1, 1)]
	if same <= mixed {
		t.Fatalf("homophily not visible in ΘF: same=%v mixed=%v", same, mixed)
	}
}

func TestTrueThetaFEmptyGraphIsUniform(t *testing.T) {
	g := graph.New(10, 2)
	theta := TrueThetaF(g)
	for _, v := range theta {
		if math.Abs(v-1.0/float64(NumEdgeConfigs(2))) > 1e-12 {
			t.Fatalf("edgeless ΘF should be uniform, got %v", theta)
		}
	}
}

func TestUniformThetaF(t *testing.T) {
	u := UniformThetaF(2)
	if len(u) != 10 {
		t.Fatalf("UniformThetaF(2) length = %d, want 10", len(u))
	}
	for _, v := range u {
		if math.Abs(v-0.1) > 1e-12 {
			t.Fatalf("UniformThetaF(2) = %v, want all 0.1 (footnote 6)", u)
		}
	}
}

func TestDefaultTruncationK(t *testing.T) {
	// The paper's Figure 1 quotes k = 12 (Last.fm, n=1843), k = 12 (Petster,
	// n=1788), k = 30 (Epinions, n=26427) and k = 84 (Pokec, n=592627).
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {8, 2}, {1000, 10},
		{1843, 12}, {1788, 12}, {26427, 30}, {592627, 84},
	}
	for _, c := range cases {
		if got := DefaultTruncationK(c.n); got != c.want {
			t.Fatalf("DefaultTruncationK(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLearnCorrelationsDPOutputsDistribution(t *testing.T) {
	g := homophilousGraph(3, 150, 2, 0.2, 0.02)
	theta := LearnCorrelationsDP(dp.NewRand(1), g, 1.0, DefaultTruncationK(g.NumNodes()))
	if len(theta) != NumEdgeConfigs(2) {
		t.Fatalf("length = %d, want %d", len(theta), NumEdgeConfigs(2))
	}
	if !isDistribution(theta) {
		t.Fatalf("not a distribution: %v", theta)
	}
}

func TestLearnCorrelationsDPAccuracyAtHighEpsilon(t *testing.T) {
	g := homophilousGraph(4, 400, 2, 0.1, 0.01)
	truth := TrueThetaF(g)
	var mae float64
	const trials = 10
	for i := 0; i < trials; i++ {
		est := LearnCorrelationsDP(dp.NewRand(int64(i)), g, 5.0, DefaultTruncationK(g.NumNodes()))
		mae += meanAbsError(truth, est)
	}
	mae /= trials
	// Truncation at k = n^(1/3) barely touches this graph, and eps=5 noise is
	// small relative to hundreds of edges per configuration.
	if mae > 0.03 {
		t.Fatalf("MAE = %v at eps=5, want < 0.03", mae)
	}
}

func TestLearnCorrelationsDPBeatsBaselineAndUniform(t *testing.T) {
	g := homophilousGraph(5, 300, 2, 0.12, 0.015)
	truth := TrueThetaF(g)
	k := DefaultTruncationK(g.NumNodes())
	var truncMAE, naiveMAE float64
	const trials = 15
	for i := 0; i < trials; i++ {
		truncMAE += meanAbsError(truth, LearnCorrelationsDP(dp.NewRand(int64(i)), g, 0.5, k))
		naiveMAE += meanAbsError(truth, LearnCorrelationsNaive(dp.NewRand(int64(i)+500), g, 0.5))
	}
	if truncMAE >= naiveMAE {
		t.Fatalf("edge truncation MAE %v not better than naive Laplace %v", truncMAE, naiveMAE)
	}
	uniformMAE := meanAbsError(truth, UniformThetaF(2)) * trials
	if truncMAE >= uniformMAE {
		t.Fatalf("edge truncation MAE %v not better than the uniform baseline %v", truncMAE, uniformMAE)
	}
}

func TestLearnCorrelationsDPErrorDecreasesWithEpsilon(t *testing.T) {
	g := homophilousGraph(6, 300, 2, 0.12, 0.015)
	truth := TrueThetaF(g)
	k := DefaultTruncationK(g.NumNodes())
	avg := func(eps float64) float64 {
		var mae float64
		const trials = 15
		for i := 0; i < trials; i++ {
			mae += meanAbsError(truth, LearnCorrelationsDP(dp.NewRand(int64(i)*3+1), g, eps, k))
		}
		return mae / trials
	}
	if tight, loose := avg(2.0), avg(0.05); tight >= loose {
		t.Fatalf("MAE at eps=2 (%v) not below MAE at eps=0.05 (%v)", tight, loose)
	}
}

func TestLearnCorrelationsDPPanics(t *testing.T) {
	g := homophilousGraph(7, 30, 1, 0.2, 0.05)
	mustPanic(t, func() { LearnCorrelationsDP(dp.NewRand(1), g, 0, 3) }, "zero epsilon")
	mustPanic(t, func() { LearnCorrelationsDP(dp.NewRand(1), g, 1, 0) }, "k = 0")
}

func TestLearnCorrelationsSmoothOutputsDistribution(t *testing.T) {
	g := homophilousGraph(8, 200, 2, 0.15, 0.02)
	theta := LearnCorrelationsSmooth(dp.NewRand(1), g, 1.0, 1e-6)
	if !isDistribution(theta) {
		t.Fatalf("not a distribution: %v", theta)
	}
	mustPanic(t, func() { LearnCorrelationsSmooth(dp.NewRand(1), g, 0, 1e-6) }, "zero epsilon")
	mustPanic(t, func() { LearnCorrelationsSmooth(dp.NewRand(1), g, 1, 0) }, "zero delta")
}

func TestLearnCorrelationsSmoothHandlesEdgelessGraph(t *testing.T) {
	g := graph.New(20, 1)
	theta := LearnCorrelationsSmooth(dp.NewRand(1), g, 1.0, 1e-6)
	if !isDistribution(theta) {
		t.Fatalf("not a distribution: %v", theta)
	}
}

func TestLearnCorrelationsSampleAggregateOutputsDistribution(t *testing.T) {
	g := homophilousGraph(9, 300, 2, 0.15, 0.02)
	theta := LearnCorrelationsSampleAggregate(dp.NewRand(1), g, 1.0, 30)
	if !isDistribution(theta) {
		t.Fatalf("not a distribution: %v", theta)
	}
	mustPanic(t, func() { LearnCorrelationsSampleAggregate(dp.NewRand(1), g, 0, 30) }, "zero epsilon")
	mustPanic(t, func() { LearnCorrelationsSampleAggregate(dp.NewRand(1), g, 1, 1) }, "group size 1")
}

func TestLearnCorrelationsSampleAggregateRecoversSignalAtHighEpsilon(t *testing.T) {
	g := homophilousGraph(10, 600, 1, 0.1, 0.01)
	truth := TrueThetaF(g)
	var mae float64
	const trials = 10
	for i := 0; i < trials; i++ {
		mae += meanAbsError(truth, LearnCorrelationsSampleAggregate(dp.NewRand(int64(i)), g, 5.0, 60))
	}
	mae /= trials
	uniformMAE := meanAbsError(truth, UniformThetaF(1))
	if mae >= uniformMAE {
		t.Fatalf("S&A MAE %v not better than uniform baseline %v", mae, uniformMAE)
	}
}

func TestLearnCorrelationsNaiveOutputsDistribution(t *testing.T) {
	g := homophilousGraph(11, 100, 2, 0.15, 0.02)
	theta := LearnCorrelationsNaive(dp.NewRand(1), g, 0.5)
	if !isDistribution(theta) {
		t.Fatalf("not a distribution: %v", theta)
	}
	mustPanic(t, func() { LearnCorrelationsNaive(dp.NewRand(1), g, 0) }, "zero epsilon")
}

func TestTruncationSensitivityScalesWithK(t *testing.T) {
	// For a fixed epsilon, a smaller k means less noise per count. On a graph
	// whose max degree is already small, k values above dmax should behave
	// identically in terms of what is counted (no edges removed).
	g := homophilousGraph(12, 200, 2, 0.05, 0.01)
	k := g.MaxDegree()
	truncated := g.Truncate(k)
	if truncated.NumEdges() != g.NumEdges() {
		t.Fatalf("truncation at dmax removed edges")
	}
	countsA := EdgeConfigCounts(g)
	countsB := EdgeConfigCounts(truncated)
	for i := range countsA {
		if countsA[i] != countsB[i] {
			t.Fatalf("counts differ at %d despite identical graphs", i)
		}
	}
}

// TestLearnCorrelationsDPCountsTruncatedGraph pins Algorithm 4's counting
// step: Q_F streamed over the edges µ(G, k) keeps must equal the counts of
// the materialised truncated graph, so the release is bit-identical to
// counting graph.Truncate(k). The skewed fixture cascades deletions at small k.
func TestLearnCorrelationsDPCountsTruncatedGraph(t *testing.T) {
	g := histFixture(t, true)
	for _, k := range []int{1, 3, 12, g.MaxDegree()} {
		counts := EdgeConfigCounts(g.Truncate(k))
		noisy := dp.LaplaceVector(rand.New(rand.NewSource(5)), counts, ThetaFSensitivity(k), 0.5)
		clampNonNegative(noisy)
		want := dp.NormalizeToDistribution(noisy)
		got := LearnCorrelationsDP(rand.New(rand.NewSource(5)), g, 0.5, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: Θ̃F[%d] = %v, counting the truncated graph gives %v", k, i, got[i], want[i])
			}
		}
	}
}

// l1 returns Σ |a[i] − b[i]|.
func l1(a, b []float64) float64 {
	total := 0.0
	for i := range a {
		total += math.Abs(a[i] - b[i])
	}
	return total
}

// TestThetaFSensitivityCoversEdgeToggleAtKOne pins the k = 1 neighbour pair
// on which one edge toggle moves Q_F over µ(G, k) by 3, more than 2k: adding
// 1–3 to {0–3, 1–2} makes µ drop both old edges and keep the new one.
func TestThetaFSensitivityCoversEdgeToggleAtKOne(t *testing.T) {
	build := func(edges ...graph.Edge) *graph.Graph {
		b := graph.NewBuilder(4, 1)
		for i, a := range []graph.AttrVector{1, 0, 0, 1} {
			b.SetAttr(i, a)
		}
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		return b.Finalize()
	}
	g := build(graph.Edge{U: 0, V: 3}, graph.Edge{U: 1, V: 2})
	h := build(graph.Edge{U: 0, V: 3}, graph.Edge{U: 1, V: 2}, graph.Edge{U: 1, V: 3})
	before, after := EdgeConfigCounts(g.Truncate(1)), EdgeConfigCounts(h.Truncate(1))
	if d := l1(before, after); d > ThetaFSensitivity(1) {
		t.Fatalf("Q_F over µ(G, 1) moved by %v (%v → %v), above ThetaFSensitivity(1) = %v",
			d, before, after, ThetaFSensitivity(1))
	}
}

// TestThetaFSensitivityExhaustive checks ThetaFSensitivity(k), k = 1..4,
// against every neighbour pair on two to five nodes with one attribute: every
// graph, every attribute assignment, and every single-edge toggle and
// single-node attribute flip of it.
func TestThetaFSensitivityExhaustive(t *testing.T) {
	for n := 2; n <= 5; n++ {
		var pairs []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, graph.Edge{U: u, V: v})
			}
		}
		for k := 1; k <= 4; k++ {
			bound := ThetaFSensitivity(k)
			// kept[mask] lists the edges µ(G, k) keeps, G = the pairs in mask.
			kept := make([][]graph.Edge, 1<<len(pairs))
			for mask := range kept {
				var edges []graph.Edge
				for p, e := range pairs {
					if mask&(1<<p) != 0 {
						edges = append(edges, e)
					}
				}
				graph.FromEdges(n, 1, edges).ForEachTruncatedEdge(k, func(u, v int) {
					kept[mask] = append(kept[mask], graph.Edge{U: u, V: v})
				})
			}
			counts := func(mask, attrs int) []float64 {
				q := make([]float64, NumEdgeConfigs(1))
				for _, e := range kept[mask] {
					q[EdgeConfig(graph.AttrVector(attrs>>e.U&1), graph.AttrVector(attrs>>e.V&1), 1)]++
				}
				return q
			}
			for mask := range kept {
				for attrs := 0; attrs < 1<<n; attrs++ {
					q := counts(mask, attrs)
					for p := range pairs {
						if d := l1(q, counts(mask^1<<p, attrs)); d > bound {
							t.Fatalf("n=%d k=%d graph %b attrs %b: toggling %v moves Q_F by %v > %v",
								n, k, mask, attrs, pairs[p], d, bound)
						}
					}
					for i := 0; i < n; i++ {
						if d := l1(q, counts(mask, attrs^1<<i)); d > bound {
							t.Fatalf("n=%d k=%d graph %b attrs %b: flipping node %d moves Q_F by %v > %v",
								n, k, mask, attrs, i, d, bound)
						}
					}
				}
			}
		}
	}
}
