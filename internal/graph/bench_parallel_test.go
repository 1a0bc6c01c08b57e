package graph_test

// Paired sequential-vs-parallel benchmarks for the sharded analytics and the
// max-common-neighbour scan, run on the shared 10k-node Chung–Lu fixture.
// The *Sequential variants pin one worker; the *Parallel variants use the
// process default (GOMAXPROCS), so the pairs measure the worker-pool speedup
// on the benchmarking host; on a single core the ratio is ≈ 1 by
// construction.

import (
	"testing"
)

func BenchmarkTrianglesSequential(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.TrianglesWith(1)
	}
}

func BenchmarkTrianglesParallel(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.TrianglesWith(0)
	}
}

func BenchmarkMaxCommonNeighborsSequential(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MaxCommonNeighbors(1)
	}
}

func BenchmarkMaxCommonNeighborsParallel(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.MaxCommonNeighbors(0)
	}
}

func BenchmarkLocalClusteringAllSequential(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.LocalClusteringAllWith(1)
	}
}

func BenchmarkLocalClusteringAllParallel(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.LocalClusteringAllWith(0)
	}
}

func BenchmarkSummarizeSequential(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SummarizeWith(1)
	}
}

func BenchmarkSummarizeParallel(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.SummarizeWith(0)
	}
}
