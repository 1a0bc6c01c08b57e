package graph_test

// Paired sequential-vs-parallel benchmarks for the sharded analytics and the
// max-common-neighbour scan, run on the shared 10k-node Chung–Lu fixture.
// The *Sequential variants set the process default to one worker; the
// *Parallel variants use GOMAXPROCS, so the pairs measure the worker-pool
// speedup on the benchmarking host; on a single core the ratio is ≈ 1 by
// construction.

import (
	"runtime"
	"testing"

	"agmdp/internal/parallel"
)

// benchAt times fn on the shared fixture at the given process-default worker
// count.
func benchAt(b *testing.B, workers int, fn func()) {
	defer parallel.SetParallelism(parallel.SetParallelism(workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}

func BenchmarkTrianglesSequential(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, 1, func() { _ = g.Triangles() })
}

func BenchmarkTrianglesParallel(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, runtime.GOMAXPROCS(0), func() { _ = g.Triangles() })
}

func BenchmarkTrianglesAndMaxCommonNeighborsSequential(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, 1, func() { _, _ = g.TrianglesAndMaxCommonNeighbors() })
}

func BenchmarkTrianglesAndMaxCommonNeighborsParallel(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, runtime.GOMAXPROCS(0), func() { _, _ = g.TrianglesAndMaxCommonNeighbors() })
}

func BenchmarkLocalClusteringAllSequential(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, 1, func() { _ = g.LocalClusteringAll() })
}

func BenchmarkLocalClusteringAllParallel(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, runtime.GOMAXPROCS(0), func() { _ = g.LocalClusteringAll() })
}

func BenchmarkSummarizeSequential(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, 1, func() { _ = g.Summarize() })
}

func BenchmarkSummarizeParallel(b *testing.B) {
	g, _ := benchFixture()
	benchAt(b, runtime.GOMAXPROCS(0), func() { _ = g.Summarize() })
}
