package graph

// Benchmarks for the binary decoder's CSR validation pass, isolating the
// symmetry check the PR-5 follow-up rewrote: the per-edge binary search
// (O(m log d), kept here as the baseline) against the counting-based linear
// sweep validateSymmetry runs now (O(n + m)). The end-to-end effect also
// shows in BenchmarkReadGraphBinary (bench_io_test.go), where validation is
// a large slice of decode time.

import (
	"math/rand"
	"testing"
)

// validateBenchGraph lazily builds a heavy-tailed graph of ~120k edges, the
// same workload class as the IO benchmarks.
var validateBenchGraph = func() *Graph {
	const n = 30000
	rng := rand.New(rand.NewSource(11))
	edges := make([]Edge, 0, 4*n)
	for i := 0; i < 4*n; i++ {
		u := int(float64(n) * rng.Float64() * rng.Float64())
		edges = append(edges, Edge{U: u, V: rng.Intn(n)})
	}
	return FromEdges(n, 0, edges)
}()

// symmetryBSearchBaseline is the decoder's previous symmetry check: binary-
// search every directed entry's reverse.
func symmetryBSearchBaseline(n int, offsets []int64, neighbors []int32) bool {
	row := func(u int) []int32 { return neighbors[offsets[u]:offsets[u+1]] }
	for u := 0; u < n; u++ {
		for _, v := range row(u) {
			if !containsSorted(row(int(v)), int32(u)) {
				return false
			}
		}
	}
	return true
}

func BenchmarkValidateSymmetryBSearch(b *testing.B) {
	g := validateBenchGraph
	n := g.NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !symmetryBSearchBaseline(n, g.offsets, g.neighbors) {
			b.Fatal("valid graph reported asymmetric")
		}
	}
}

func BenchmarkValidateSymmetryLinear(b *testing.B) {
	g := validateBenchGraph
	n := g.NumNodes()
	m := int64(g.NumEdges())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := validateSymmetry(n, g.offsets, g.neighbors, m, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateCSR measures the decoder's full validation pass (row
// invariants + symmetry), the dominant non-IO cost of ReadBinary.
func BenchmarkValidateCSR(b *testing.B) {
	g := validateBenchGraph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := validateCSR(g.NumNodes(), g.offsets, g.neighbors); err != nil {
			b.Fatal(err)
		}
	}
}
