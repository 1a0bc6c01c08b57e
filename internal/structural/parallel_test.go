package structural

import (
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

// parallelDegrees builds a skewed degree sequence whose edge total clears the
// minParallelEdges threshold so the parallel path actually engages.
func parallelDegrees(n int) []int {
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = 2 + i%7
		if i%97 == 0 {
			degrees[i] = 40
		}
	}
	return degrees
}

func TestGenerateCLParallelDeterministicPerWorkerCount(t *testing.T) {
	degrees := parallelDegrees(3000)
	n := len(degrees)
	gen := func(seed int64, workers int) *graph.Graph {
		sampler := NewNodeSampler(degrees, nil)
		target := sumDegrees(degrees) / 2
		return GenerateCL(rand.New(rand.NewSource(seed)), n, sampler, target, nil, workers)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		a, b := gen(17, workers), gen(17, workers)
		if !a.Equal(b) {
			t.Fatalf("workers=%d: same seed produced different graphs", workers)
		}
	}
	if gen(17, 1).Equal(gen(18, 1)) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateCLParallelHitsEdgeTarget(t *testing.T) {
	degrees := parallelDegrees(3000)
	n := len(degrees)
	target := sumDegrees(degrees) / 2
	for _, workers := range []int{2, 4} {
		sampler := NewNodeSampler(degrees, nil)
		g := GenerateCL(rand.New(rand.NewSource(3)), n, sampler, target, nil, workers)
		// Cross-worker duplicates are topped up sequentially; with a generous
		// proposal budget the realised count should land on the target.
		if got := g.NumEdges(); got < target*95/100 || got > target {
			t.Fatalf("workers=%d: %d edges, want ≈%d", workers, got, target)
		}
	}
}

func TestGenerateCLParallelSmallTargetFallsBack(t *testing.T) {
	// Below the threshold a multi-worker call must consume the rng exactly
	// like the sequential loop, i.e. produce the identical graph.
	degrees := make([]int, 200)
	for i := range degrees {
		degrees[i] = 3
	}
	n := len(degrees)
	target := sumDegrees(degrees) / 2
	seq := GenerateCL(rand.New(rand.NewSource(9)), n, NewNodeSampler(degrees, nil), target, nil, 1)
	par := GenerateCL(rand.New(rand.NewSource(9)), n, NewNodeSampler(degrees, nil), target, nil, 8)
	if !seq.Equal(par) {
		t.Fatal("small-target parallel generation diverged from sequential")
	}
}

func TestGenerateCLParallelWithFilter(t *testing.T) {
	degrees := parallelDegrees(3000)
	n := len(degrees)
	target := sumDegrees(degrees) / 2
	// A filter that suppresses edges between same-parity nodes; the four
	// streams share it and the pair sampler built from it.
	filter := classFilter(n, 2, func(u int) int { return u % 2 }, crossParity)
	sampler := NewNodeSampler(degrees, nil)
	g := GenerateCL(rand.New(rand.NewSource(5)), n, sampler, target, filter, 4)
	g.ForEachEdge(func(u, v int) bool {
		if (u+v)%2 == 0 {
			t.Fatalf("edge {%d,%d} violates the filter", u, v)
		}
		return true
	})
	if g.NumEdges() == 0 {
		t.Fatal("filter starved generation entirely")
	}
	// Deterministic under the filter too.
	sampler2 := NewNodeSampler(degrees, nil)
	h := GenerateCL(rand.New(rand.NewSource(5)), n, sampler2, target, filter, 4)
	if !g.Equal(h) {
		t.Fatal("filtered parallel generation is not deterministic")
	}
}

// crossParity accepts an edge only between the two parity classes.
func crossParity(a, b int) float64 {
	if (a+b)%2 == 0 {
		return 0
	}
	return 1
}

func TestParallelModelsDeterministic(t *testing.T) {
	degrees := parallelDegrees(2400)
	n := len(degrees)
	params := Params{Degrees: degrees, Triangles: 500}
	for name, model := range map[string]Model{
		"FCL":      FCL{Parallelism: 4},
		"TriCycLe": TriCycLe{Parallelism: 4},
	} {
		a := model.Generate(rand.New(rand.NewSource(21)), n, params, nil).Finalize()
		b := model.Generate(rand.New(rand.NewSource(21)), n, params, nil).Finalize()
		if !a.Equal(b) {
			t.Fatalf("%s with Parallelism=4: same seed produced different graphs", name)
		}
		if a.NumEdges() == 0 {
			t.Fatalf("%s generated an empty graph", name)
		}
	}
}
