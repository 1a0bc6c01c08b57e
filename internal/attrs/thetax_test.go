package attrs

import (
	"math"
	"testing"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

func attributedGraph(n, w int, configOf func(i int) int) *graph.Graph {
	b := graph.NewBuilder(n, w)
	for i := 0; i < n; i++ {
		b.SetAttr(i, graph.AttrVector(configOf(i)))
	}
	return b.Finalize()
}

func TestNodeConfigCounts(t *testing.T) {
	// 60% config 0, 30% config 1, 10% config 3.
	g := attributedGraph(100, 2, func(i int) int {
		switch {
		case i < 60:
			return 0
		case i < 90:
			return 1
		default:
			return 3
		}
	})
	counts := NodeConfigCounts(g)
	want := []float64{60, 30, 0, 10}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestTrueThetaX(t *testing.T) {
	g := attributedGraph(10, 1, func(i int) int {
		if i < 7 {
			return 1
		}
		return 0
	})
	theta := TrueThetaX(g)
	if math.Abs(theta[0]-0.3) > 1e-12 || math.Abs(theta[1]-0.7) > 1e-12 {
		t.Fatalf("TrueThetaX = %v, want [0.3 0.7]", theta)
	}
}

func TestLearnAttributesDPIsDistribution(t *testing.T) {
	g := attributedGraph(200, 2, func(i int) int { return i % 4 })
	theta := LearnAttributesDP(dp.NewRand(1), g, 1.0)
	if len(theta) != 4 {
		t.Fatalf("length = %d, want 4", len(theta))
	}
	if !isDistribution(theta) {
		t.Fatalf("not a distribution: %v", theta)
	}
}

func TestLearnAttributesDPAccuracy(t *testing.T) {
	g := attributedGraph(2000, 2, func(i int) int {
		switch {
		case i < 1000:
			return 0
		case i < 1600:
			return 1
		case i < 1900:
			return 2
		default:
			return 3
		}
	})
	truth := TrueThetaX(g)
	var mae float64
	const trials = 20
	for i := 0; i < trials; i++ {
		mae += meanAbsError(truth, LearnAttributesDP(dp.NewRand(int64(i)), g, 0.5))
	}
	mae /= trials
	// Sensitivity is only 2, so with 2000 nodes the distribution should be
	// recovered almost exactly even at eps = 0.5.
	if mae > 0.01 {
		t.Fatalf("MAE = %v, want < 0.01", mae)
	}
}

func TestLearnAttributesDPErrorShrinksWithEpsilon(t *testing.T) {
	g := attributedGraph(150, 2, func(i int) int { return i % 3 })
	truth := TrueThetaX(g)
	avg := func(eps float64) float64 {
		var mae float64
		const trials = 30
		for i := 0; i < trials; i++ {
			mae += meanAbsError(truth, LearnAttributesDP(dp.NewRand(int64(i)+7), g, eps))
		}
		return mae / trials
	}
	if tight, loose := avg(5.0), avg(0.05); tight >= loose {
		t.Fatalf("MAE at eps=5 (%v) not below MAE at eps=0.05 (%v)", tight, loose)
	}
}

func TestLearnAttributesDPPanicsOnBadEpsilon(t *testing.T) {
	g := attributedGraph(10, 1, func(i int) int { return 0 })
	mustPanic(t, func() { LearnAttributesDP(dp.NewRand(1), g, 0) }, "zero epsilon")
	mustPanic(t, func() { LearnAttributesDP(dp.NewRand(1), g, -1) }, "negative epsilon")
}

func TestSampleAttributesMatchesDistribution(t *testing.T) {
	rng := dp.NewRand(9)
	thetaX := []float64{0.5, 0.2, 0.2, 0.1}
	n := 50000
	sampled := SampleAttributes(rng, thetaX, n, 2)
	if len(sampled) != n {
		t.Fatalf("sampled %d vectors, want %d", len(sampled), n)
	}
	counts := make([]float64, 4)
	for _, a := range sampled {
		counts[NodeConfig(a, 2)]++
	}
	for i, p := range thetaX {
		frac := counts[i] / float64(n)
		if math.Abs(frac-p) > 0.01 {
			t.Fatalf("config %d frequency %v, want ≈ %v", i, frac, p)
		}
	}
}

func TestSampleAttributesPanicsOnWidthMismatch(t *testing.T) {
	mustPanic(t, func() { SampleAttributes(dp.NewRand(1), []float64{1}, 5, 2) }, "width mismatch")
}

// TestThetaXSensitivityExhaustive checks ThetaXSensitivity the way
// TestThetaFSensitivityExhaustive checks Θ_F: on two to five nodes with one
// attribute, every graph, every attribute assignment, and every single-edge
// toggle and single-node attribute flip of it moves Q_X by at most the L1
// sensitivity LearnAttributesDP charges.
func TestThetaXSensitivityExhaustive(t *testing.T) {
	for n := 2; n <= 5; n++ {
		var pairs []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, graph.Edge{U: u, V: v})
			}
		}
		// q[mask][attrs] is Q_X of the graph on the pairs in mask whose node i
		// has attribute bit i of attrs.
		q := make([][][]float64, 1<<len(pairs))
		for mask := range q {
			q[mask] = make([][]float64, 1<<n)
			for attrs := range q[mask] {
				b := graph.NewBuilder(n, 1)
				for p, e := range pairs {
					if mask&(1<<p) != 0 {
						b.AddEdge(e.U, e.V)
					}
				}
				for i := 0; i < n; i++ {
					b.SetAttr(i, graph.AttrVector(attrs>>i&1))
				}
				q[mask][attrs] = NodeConfigCounts(b.Finalize())
			}
		}
		for mask := range q {
			for attrs := range q[mask] {
				for p := range pairs {
					if d := l1(q[mask][attrs], q[mask^1<<p][attrs]); d > ThetaXSensitivity {
						t.Fatalf("n=%d graph %b attrs %b: toggling %v moves Q_X by %v > %v",
							n, mask, attrs, pairs[p], d, ThetaXSensitivity)
					}
				}
				for i := 0; i < n; i++ {
					if d := l1(q[mask][attrs], q[mask][attrs^1<<i]); d > ThetaXSensitivity {
						t.Fatalf("n=%d graph %b attrs %b: flipping node %d moves Q_X by %v > %v",
							n, mask, attrs, i, d, ThetaXSensitivity)
					}
				}
			}
		}
	}
}
