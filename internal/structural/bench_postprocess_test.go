package structural

// Benchmarks for the orphan repair pass (Algorithm 2) on the seed graph
// TriCycLe hands it: a Chung–Lu graph with degree-one nodes held out of π
// and one seed edge per degree-one node held back. Each iteration clones the
// seed, so every run repairs the same input.

import (
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

// postProcessFixture builds TriCycLe's pre-repair seed for the degree
// sequence of a dataset stand-in.
func postProcessFixture(b *testing.B, name string, scale float64) (*graph.Builder, *NodeSampler, []int) {
	b.Helper()
	degrees := datasetDegrees(b, name, scale)
	degreeOne := 0
	for _, d := range degrees {
		if d == 1 {
			degreeOne++
		}
	}
	sampler := NewNodeSampler(degrees, func(i int) bool { return degrees[i] == 1 })
	seedTarget := max(sumDegrees(degrees)/2-degreeOne, 0)
	seed := generateCLBuilder(rand.New(rand.NewSource(2)), len(degrees), sampler, seedTarget, nil, 1)
	return seed, sampler, degrees
}

func benchmarkPostProcessGraph(b *testing.B, name string, scale float64) {
	seed, sampler, degrees := postProcessFixture(b, name, scale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PostProcessGraph(rand.New(rand.NewSource(3)), seed.Clone(), sampler, degrees, nil)
	}
}

// BenchmarkPostProcessGraph repairs a lastfm scale-0.5 seed (922 nodes, the
// publish benchmark's input shape) and an epinions scale-0.38 seed (about
// 10k nodes).
func BenchmarkPostProcessGraph(b *testing.B) {
	b.Run("lastfm-1k", func(b *testing.B) { benchmarkPostProcessGraph(b, "lastfm", 0.5) })
	b.Run("epinions-10k", func(b *testing.B) { benchmarkPostProcessGraph(b, "epinions", 0.38) })
}
