package structural

// BenchmarkTriCycLeRewire times TriCycLe's rewiring phase (Algorithm 1,
// lines 5–13) on its own. Each iteration clones a pre-built Chung–Lu seed
// builder and rewires it toward a 3× triangle target.

import (
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

var rewireBenchSeed *graph.Builder

// rewireBenchFixture builds (once) a ~16k-edge seed graph with a
// heavy-tailed degree profile.
func rewireBenchFixture(b *testing.B) (*graph.Builder, *NodeSampler, int64) {
	b.Helper()
	degrees := parallelDegrees(6000)
	sampler := NewNodeSampler(degrees, nil)
	if rewireBenchSeed == nil {
		target := sumDegrees(degrees) / 2
		rewireBenchSeed = generateCLBuilder(rand.New(rand.NewSource(3)), len(degrees), sampler, target, nil, 1)
	}
	return rewireBenchSeed, sampler, rewireBenchSeed.Triangles() * 3
}

func BenchmarkTriCycLeRewire(b *testing.B) {
	seed, sampler, target := rewireBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := seed.Clone()
		rewireSequential(rand.New(rand.NewSource(9)), bl, sampler, nil, target)
	}
}
