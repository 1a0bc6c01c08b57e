package analytics

// Analytics benchmarks on the shared 30k-node heavy-tailed Chung–Lu fixture
// (≥100k edges, 2 attributes — the same shape the graph codec benchmarks
// use). The cold/warm pair quantifies what the content-addressed cache buys
// a metrics serve; the evaluate pair quantifies what parallel utility
// comparison buys an evaluation job.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"agmdp/internal/experiments"
	"agmdp/internal/graph"
	"agmdp/internal/parallel"
	"agmdp/internal/structural"
)

const analyticsBenchNodes = 30000

var (
	analyticsBenchOnce  sync.Once
	analyticsBenchGraph *graph.Graph
)

// analyticsBenchDegrees mirrors the graph package's benchDegrees: a
// heavy-tailed (Pareto-ish, α ≈ 2) degree sequence with an even sum.
func analyticsBenchDegrees(rng *rand.Rand, n, maxDeg int) []int {
	degs := make([]int, n)
	total := 0
	for i := range degs {
		u := rng.Float64()
		d := int(math.Ceil(1 / (1 - u*(1-1/float64(maxDeg)))))
		if d > maxDeg {
			d = maxDeg
		}
		degs[i] = d
		total += d
	}
	if total%2 == 1 {
		degs[0]++
	}
	return degs
}

// analyticsBenchFixture lazily builds the 30k-node graph (seed 5, matching
// the codec benchmarks' fixture construction so the edge counts agree).
func analyticsBenchFixture(tb testing.TB) *graph.Graph {
	analyticsBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(5))
		degs := analyticsBenchDegrees(rng, analyticsBenchNodes, 400)
		total := 0
		for i := range degs {
			degs[i] += 6
			total += degs[i]
		}
		sampler := structural.NewNodeSampler(degs, nil)
		g := structural.GenerateCL(rng, analyticsBenchNodes, sampler, total/2, nil, 1)
		attrs := make([]graph.AttrVector, g.NumNodes())
		for i := range attrs {
			attrs[i] = graph.AttrVector(rng.Uint64() & 3)
		}
		analyticsBenchGraph = g.WithAttributes(2, attrs)
	})
	if analyticsBenchGraph.NumEdges() < 100_000 {
		tb.Fatalf("analytics bench fixture has only %d edges, want >= 100k", analyticsBenchGraph.NumEdges())
	}
	return analyticsBenchGraph
}

// benchSource serves the fixture under a fixed ID.
type benchSource struct{ g *graph.Graph }

func (s benchSource) Get(id string) (*graph.Graph, bool) {
	if id == "bench" {
		return s.g, true
	}
	return nil, false
}

// BenchmarkMetricsBundleCold measures a full bundle compute + encode, the
// work a cache miss pays. Evicting between iterations keeps every Get cold.
func BenchmarkMetricsBundleCold(b *testing.B) {
	g := analyticsBenchFixture(b)
	c, err := NewCache(Options{Source: benchSource{g}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, _, err := c.Get("bench")
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(raw)))
		c.Evict("bench")
	}
}

// BenchmarkMetricsBundleWarm measures a cache hit: the steady-state cost of
// GET /v1/graphs/{id}/metrics once the bundle is resident.
func BenchmarkMetricsBundleWarm(b *testing.B) {
	g := analyticsBenchFixture(b)
	c, err := NewCache(Options{Source: benchSource{g}})
	if err != nil {
		b.Fatal(err)
	}
	raw, _, err := c.Get("bench")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateSequential measures the fixture and compares it against
// its own premeasured copy with a single worker — the per-sample core of an
// evaluate job without parallelism.
func BenchmarkEvaluateSequential(b *testing.B) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	g := analyticsBenchFixture(b)
	source := experiments.Measure(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		source.Compare(experiments.Measure(g))
	}
}

// BenchmarkEvaluateParallel is the same comparison fanned across all cores.
func BenchmarkEvaluateParallel(b *testing.B) {
	defer parallel.SetParallelism(parallel.SetParallelism(runtime.GOMAXPROCS(0)))
	g := analyticsBenchFixture(b)
	source := experiments.Measure(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		source.Compare(experiments.Measure(g))
	}
}
