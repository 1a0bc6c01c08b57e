package attrs

import (
	"math"
	"testing"
	"testing/quick"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

func TestNumNodeConfigs(t *testing.T) {
	cases := []struct{ w, want int }{{0, 1}, {1, 2}, {2, 4}, {3, 8}, {10, 1024}}
	for _, c := range cases {
		if got := NumNodeConfigs(c.w); got != c.want {
			t.Fatalf("NumNodeConfigs(%d) = %d, want %d", c.w, got, c.want)
		}
	}
	mustPanic(t, func() { NumNodeConfigs(-1) }, "negative w")
	mustPanic(t, func() { NumNodeConfigs(31) }, "too large w")
}

func TestNumEdgeConfigs(t *testing.T) {
	// Paper: with w attributes there are C(2^w + 1, 2) configurations;
	// for w = 2 that is 10 (the "ten probabilities" of footnote 6).
	cases := []struct{ w, want int }{{0, 1}, {1, 3}, {2, 10}, {3, 36}}
	for _, c := range cases {
		if got := NumEdgeConfigs(c.w); got != c.want {
			t.Fatalf("NumEdgeConfigs(%d) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestNodeConfigMasksToWidth(t *testing.T) {
	if got := NodeConfig(graph.AttrVector(0b101), 2); got != 0b01 {
		t.Fatalf("NodeConfig masked = %d, want 1", got)
	}
	if got := NodeConfig(graph.AttrVector(3), 2); got != 3 {
		t.Fatalf("NodeConfig(3, 2) = %d, want 3", got)
	}
}

func TestEdgeConfigSymmetric(t *testing.T) {
	w := 2
	for a := 0; a < NumNodeConfigs(w); a++ {
		for b := 0; b < NumNodeConfigs(w); b++ {
			ab := EdgeConfig(graph.AttrVector(a), graph.AttrVector(b), w)
			ba := EdgeConfig(graph.AttrVector(b), graph.AttrVector(a), w)
			if ab != ba {
				t.Fatalf("EdgeConfig not symmetric for (%d,%d): %d vs %d", a, b, ab, ba)
			}
			if ab < 0 || ab >= NumEdgeConfigs(w) {
				t.Fatalf("EdgeConfig(%d,%d) = %d out of range", a, b, ab)
			}
		}
	}
}

func TestEdgeConfigBijectiveOnUnorderedPairs(t *testing.T) {
	w := 3
	seen := make(map[int][2]int)
	for a := 0; a < NumNodeConfigs(w); a++ {
		for b := a; b < NumNodeConfigs(w); b++ {
			idx := EdgeConfig(graph.AttrVector(a), graph.AttrVector(b), w)
			if prev, ok := seen[idx]; ok {
				t.Fatalf("index %d assigned to both %v and (%d,%d)", idx, prev, a, b)
			}
			seen[idx] = [2]int{a, b}
		}
	}
	if len(seen) != NumEdgeConfigs(w) {
		t.Fatalf("covered %d indices, want %d", len(seen), NumEdgeConfigs(w))
	}
}

func TestConfigToVectorRoundTrip(t *testing.T) {
	w := 4
	for idx := 0; idx < NumNodeConfigs(w); idx++ {
		if got := NodeConfig(ConfigToVector(idx, w), w); got != idx {
			t.Fatalf("round trip failed for %d: got %d", idx, got)
		}
	}
	mustPanic(t, func() { ConfigToVector(-1, 2) }, "negative index")
	mustPanic(t, func() { ConfigToVector(4, 2) }, "index too large")
}

func TestSampleIndexFollowsDistribution(t *testing.T) {
	rng := dp.NewRand(5)
	dist := []float64{0.1, 0.6, 0.3}
	counts := make([]float64, 3)
	const trials = 60000
	for i := 0; i < trials; i++ {
		counts[SampleIndex(rng, dist)]++
	}
	for i, p := range dist {
		frac := counts[i] / trials
		if math.Abs(frac-p) > 0.01 {
			t.Fatalf("index %d frequency %v, want ≈ %v", i, frac, p)
		}
	}
}

func TestSampleIndexUnnormalisedWeights(t *testing.T) {
	rng := dp.NewRand(6)
	dist := []float64{2, 6, 2} // same shape as {0.2, 0.6, 0.2}
	counts := make([]float64, 3)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[SampleIndex(rng, dist)]++
	}
	if math.Abs(counts[1]/trials-0.6) > 0.02 {
		t.Fatalf("middle index frequency %v, want ≈ 0.6", counts[1]/trials)
	}
}

func TestSampleIndexPanics(t *testing.T) {
	rng := dp.NewRand(1)
	mustPanic(t, func() { SampleIndex(rng, nil) }, "empty distribution")
	mustPanic(t, func() { SampleIndex(rng, []float64{0, 0}) }, "all-zero distribution")
	mustPanic(t, func() { SampleIndex(rng, []float64{0.5, -0.1}) }, "negative weight")
}

// Property: EdgeConfig indices are always in range and agree across endpoint
// orderings for arbitrary vectors and widths.
func TestEdgeConfigRangeProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8, wRaw uint8) bool {
		w := int(wRaw%4) + 1
		a := graph.AttrVector(aRaw)
		b := graph.AttrVector(bRaw)
		idx := EdgeConfig(a, b, w)
		return idx >= 0 && idx < NumEdgeConfigs(w) && idx == EdgeConfig(b, a, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, fn func(), label string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}
