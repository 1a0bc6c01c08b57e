package triangles

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Finalize()
}

func randomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Finalize()
}

// maxCommonNeighbors is the maximum common-neighbour count the Ladder reads.
func maxCommonNeighbors(g *graph.Graph) int {
	_, cn := g.TrianglesAndMaxCommonNeighbors()
	return cn
}

func TestMaxCommonNeighborsKnownGraphs(t *testing.T) {
	// K5: every pair shares the other 3 nodes.
	if got := maxCommonNeighbors(complete(5)); got != 3 {
		t.Fatalf("K5 MaxCommonNeighbors = %d, want 3", got)
	}
	// A star: all leaf pairs share exactly the hub.
	starB := graph.NewBuilder(6, 0)
	for i := 1; i < 6; i++ {
		starB.AddEdge(0, i)
	}
	if got := maxCommonNeighbors(starB.Finalize()); got != 1 {
		t.Fatalf("star MaxCommonNeighbors = %d, want 1", got)
	}
	// A path of length 2: the endpoints share the middle node.
	pb := graph.NewBuilder(3, 0)
	pb.AddEdge(0, 1)
	pb.AddEdge(1, 2)
	if got := maxCommonNeighbors(pb.Finalize()); got != 1 {
		t.Fatalf("path MaxCommonNeighbors = %d, want 1", got)
	}
	// No edges → no pair has a common neighbour.
	if got := maxCommonNeighbors(graph.New(4, 0)); got != 0 {
		t.Fatalf("empty graph MaxCommonNeighbors = %d, want 0", got)
	}
}

// bruteMaxCN computes the maximum common-neighbour count by checking all pairs.
func bruteMaxCN(g *graph.Graph) int {
	maxCN := 0
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if cn := g.CommonNeighbors(u, v); cn > maxCN {
				maxCN = cn
			}
		}
	}
	return maxCN
}

// Property: the two-hop enumeration agrees with the brute-force pairwise scan.
func TestMaxCommonNeighborsMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 35, 0.15)
		return maxCommonNeighbors(g) == bruteMaxCN(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSensitivityAtDistance(t *testing.T) {
	if got := LocalSensitivityAtDistance(5, 0, 100); got != 5 {
		t.Fatalf("LS_0 = %d, want 5", got)
	}
	if got := LocalSensitivityAtDistance(5, 10, 100); got != 15 {
		t.Fatalf("LS_10 = %d, want 15", got)
	}
	// Capped at n-2.
	if got := LocalSensitivityAtDistance(5, 1000, 100); got != 98 {
		t.Fatalf("LS_1000 capped = %d, want 98", got)
	}
	// Degenerate tiny graphs never go negative.
	if got := LocalSensitivityAtDistance(0, 0, 1); got != 0 {
		t.Fatalf("LS for n=1 = %d, want 0", got)
	}
}

// Property: the ladder bound is monotone non-decreasing in t and changes by at
// most 1 when maxCN changes by 1 (the 1-Lipschitz property the mechanism
// relies on).
func TestLadderFunctionMonotoneLipschitzProperty(t *testing.T) {
	f := func(maxCNRaw, tRaw uint8, nRaw uint16) bool {
		n := int(nRaw%1000) + 3
		maxCN := int(maxCNRaw) % n
		tt := int(tRaw)
		a := LocalSensitivityAtDistance(maxCN, tt, n)
		b := LocalSensitivityAtDistance(maxCN, tt+1, n)
		c := LocalSensitivityAtDistance(maxCN+1, tt, n)
		return b >= a && c-a <= 1 && c >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLadderCountAccuracyOnModerateGraph(t *testing.T) {
	g := randomGraph(7, 300, 0.05)
	truth := float64(g.Triangles())
	if truth < 50 {
		t.Fatalf("test graph too sparse: %v triangles", truth)
	}
	var totalErr float64
	const trials = 30
	for i := 0; i < trials; i++ {
		est := LadderCount(dp.NewRand(int64(i)), g, 1.0, LadderOptions{})
		totalErr += math.Abs(float64(est) - truth)
	}
	meanRelErr := totalErr / trials / truth
	if meanRelErr > 0.25 {
		t.Fatalf("Ladder mean relative error = %v at eps=1, want < 0.25", meanRelErr)
	}
}

func TestLadderCountBeatsNaiveLaplace(t *testing.T) {
	g := randomGraph(8, 250, 0.05)
	truth := float64(g.Triangles())
	var ladderErr, naiveErr float64
	const trials = 25
	for i := 0; i < trials; i++ {
		ladderErr += math.Abs(float64(LadderCount(dp.NewRand(int64(i)), g, 0.5, LadderOptions{})) - truth)
		naiveErr += math.Abs(float64(NaiveLaplaceCount(dp.NewRand(int64(i)+1000), g, 0.5)) - truth)
	}
	if ladderErr >= naiveErr {
		t.Fatalf("Ladder error %v not better than naive Laplace %v", ladderErr, naiveErr)
	}
}

func TestLadderCountNeverNegative(t *testing.T) {
	g := randomGraph(9, 50, 0.02) // very sparse, few triangles
	for i := 0; i < 50; i++ {
		if est := LadderCount(dp.NewRand(int64(i)), g, 0.1, LadderOptions{}); est < 0 {
			t.Fatalf("LadderCount returned negative estimate %d", est)
		}
	}
}

func TestLadderCountTinyGraphDoesNotPanic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		b := graph.NewBuilder(n, 0)
		if n >= 2 {
			b.AddEdge(0, 1)
		}
		if est := LadderCount(dp.NewRand(1), b.Finalize(), 0.5, LadderOptions{}); est < 0 {
			t.Fatalf("tiny graph estimate negative: %d", est)
		}
	}
}

func TestLadderCountRespectsMaxRungsOption(t *testing.T) {
	g := complete(10)
	// With a single rung the output must stay within maxCN+... of the truth
	// most of the time; mostly this checks the option plumbing doesn't panic.
	est := LadderCount(dp.NewRand(3), g, 1.0, LadderOptions{MaxRungs: 5})
	if est < 0 {
		t.Fatalf("estimate negative: %d", est)
	}
}

func TestLadderCountPanicsOnBadEpsilon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero epsilon did not panic")
		}
	}()
	LadderCount(dp.NewRand(1), complete(4), 0, LadderOptions{})
}

func TestNaiveLaplaceCountBasics(t *testing.T) {
	g := complete(6)
	if est := NaiveLaplaceCount(dp.NewRand(1), g, 100); est < 0 {
		t.Fatalf("estimate negative: %d", est)
	}
	// With an enormous epsilon the noise is tiny relative to sensitivity=4.
	est := NaiveLaplaceCount(dp.NewRand(2), g, 1e6)
	if math.Abs(float64(est)-float64(g.Triangles())) > 1 {
		t.Fatalf("estimate %d far from truth %d at huge epsilon", est, g.Triangles())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero epsilon did not panic")
		}
	}()
	NaiveLaplaceCount(dp.NewRand(1), g, 0)
}

func TestPrivateCountUsesLadder(t *testing.T) {
	g := randomGraph(11, 200, 0.06)
	truth := float64(g.Triangles())
	var err float64
	const trials = 20
	for i := 0; i < trials; i++ {
		err += math.Abs(float64(PrivateCount(dp.NewRand(int64(i)), g, 1.0)) - truth)
	}
	if err/trials/truth > 0.3 {
		t.Fatalf("PrivateCount mean relative error %v too large", err/trials/truth)
	}
}

// Property: increasing epsilon does not hurt accuracy on average.
func TestLadderAccuracyImprovesWithEpsilon(t *testing.T) {
	g := randomGraph(13, 200, 0.06)
	truth := float64(g.Triangles())
	avgErr := func(eps float64) float64 {
		var total float64
		const trials = 25
		for i := 0; i < trials; i++ {
			total += math.Abs(float64(LadderCount(dp.NewRand(int64(i)*7+3), g, eps, LadderOptions{})) - truth)
		}
		return total / trials
	}
	if tight, loose := avgErr(2.0), avgErr(0.05); tight > loose {
		t.Fatalf("error at eps=2 (%v) exceeds error at eps=0.05 (%v)", tight, loose)
	}
}

// TestLadderRungUniform checks that every integer inside a rung is equally
// likely, which the exponential-mechanism argument behind LadderCount needs.
// On the 10-cycle (no triangles, max common-neighbour count 1) rung 1 holds
// the outputs 1–2 and rung 2 the outputs 3–5 on the positive side; a χ² test
// at p = 0.001 compares each rung's counts with equal weights.
func TestLadderRungUniform(t *testing.T) {
	b := graph.NewBuilder(10, 0)
	for i := 0; i < 10; i++ {
		b.AddEdge(i, (i+1)%10)
	}
	g := b.Finalize()
	rng := dp.NewRand(17)
	counts := make(map[int64]float64)
	for i := 0; i < 60000; i++ {
		counts[LadderCount(rng, g, 1, LadderOptions{})]++
	}
	for _, rung := range []struct {
		outputs  []int64
		critical float64 // χ² at p = 0.001 with len(outputs)−1 degrees of freedom
	}{
		{[]int64{1, 2}, 10.83},
		{[]int64{3, 4, 5}, 13.82},
	} {
		got := make([]float64, len(rung.outputs))
		var total float64
		for i, v := range rung.outputs {
			got[i] = counts[v]
			total += got[i]
		}
		want := total / float64(len(got))
		var chi2 float64
		for _, c := range got {
			chi2 += (c - want) * (c - want) / want
		}
		if total < 5000 || chi2 > rung.critical {
			t.Errorf("outputs %v drawn %v times: χ² = %.1f (critical %.2f)", rung.outputs, got, chi2, rung.critical)
		}
	}
}

// TestLadderRungCapDelta checks the δ LadderCount documents for its default
// rung cap: the weight share η of the dropped rungs, on the ladders that
// widen fastest (max common-neighbour count 0 on a huge graph), keeps
// δ = (1 + e^ε)·η below 1e-10.
func TestLadderRungCapDelta(t *testing.T) {
	const n = 1 << 30
	for _, eps := range []float64{3e-4, 0.01, 0.25, 1, 4} {
		for _, maxCN := range []int{0, 1, 8} {
			capT := defaultMaxRungs(eps)
			kept, dropped := 1.0, 0.0 // rung 0 has weight 1
			for rung := 1; ; rung++ {
				w := 2 * float64(LocalSensitivityAtDistance(maxCN, rung, n)) * math.Exp(-eps*float64(rung)/2)
				if rung <= capT {
					kept += w
					continue
				}
				dropped += w
				if w <= 1e-30*dropped {
					break
				}
			}
			eta := dropped / (kept + dropped)
			if delta := (1 + math.Exp(eps)) * eta; delta >= 1e-10 {
				t.Errorf("ε = %v, maxCN = %d: dropped share %.3g gives δ = %.3g", eps, maxCN, eta, delta)
			}
		}
	}
}

// TestLadderFunctionExhaustive checks the ladder function on real graphs, not
// just its formula: on two to five nodes with one attribute, for every graph
// G and attribute assignment, (a) every graph within t ≤ 2 neighbour steps
// (edge toggles or node attribute flips) has a maximum common-neighbour count
// of at most LS_t(G), and (b) LS_t rises by at most one, and never past
// LS_{t+1}(G), from G to any neighbour.
func TestLadderFunctionExhaustive(t *testing.T) {
	for n := 2; n <= 5; n++ {
		var pairs []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, graph.Edge{U: u, V: v})
			}
		}
		type node struct{ mask, attrs int }
		// maxCN[mask][attrs] is the maximum common-neighbour count of the graph on the pairs in
		// mask whose node i has attribute bit i of attrs.
		maxCN := make([][]int, 1<<len(pairs))
		for mask := range maxCN {
			maxCN[mask] = make([]int, 1<<n)
			for attrs := range maxCN[mask] {
				b := graph.NewBuilder(n, 1)
				for p, e := range pairs {
					if mask&(1<<p) != 0 {
						b.AddEdge(e.U, e.V)
					}
				}
				for i := 0; i < n; i++ {
					b.SetAttr(i, graph.AttrVector(attrs>>i&1))
				}
				maxCN[mask][attrs] = maxCommonNeighbors(b.Finalize())
			}
		}
		neighbours := func(g node) []node {
			out := make([]node, 0, len(pairs)+n)
			for p := range pairs {
				out = append(out, node{g.mask ^ 1<<p, g.attrs})
			}
			for i := 0; i < n; i++ {
				out = append(out, node{g.mask, g.attrs ^ 1<<i})
			}
			return out
		}
		ls := func(g node, t int) int { return LocalSensitivityAtDistance(maxCN[g.mask][g.attrs], t, n) }
		for mask := range maxCN {
			for attrs := range maxCN[mask] {
				g := node{mask, attrs}
				if got := maxCN[mask][attrs]; got > ls(g, 0) {
					t.Fatalf("n=%d graph %b: maxCN %d > LS_0 = %d", n, mask, got, ls(g, 0))
				}
				for _, h := range neighbours(g) {
					for tt := 0; tt <= n; tt++ {
						if ls(h, tt) > ls(g, tt)+1 || ls(h, tt) > ls(g, tt+1) {
							t.Fatalf("n=%d graph %b attrs %b → graph %b attrs %b: LS_%d %d → %d (LS_%d(G) = %d)",
								n, mask, attrs, h.mask, h.attrs, tt, ls(g, tt), ls(h, tt), tt+1, ls(g, tt+1))
						}
					}
					if got := maxCN[h.mask][h.attrs]; got > ls(g, 1) {
						t.Fatalf("n=%d graph %b: neighbour graph %b has maxCN %d > LS_1 = %d", n, mask, h.mask, got, ls(g, 1))
					}
					for _, k := range neighbours(h) {
						if got := maxCN[k.mask][k.attrs]; got > ls(g, 2) {
							t.Fatalf("n=%d graph %b: graph %b two steps away has maxCN %d > LS_2 = %d", n, mask, k.mask, got, ls(g, 2))
						}
					}
				}
			}
		}
	}
}
