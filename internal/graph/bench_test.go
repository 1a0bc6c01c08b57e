package graph_test

// Benchmarks for the CSR core. The construction benchmarks are paired with
// the pre-refactor map-adjacency baseline (mapAdjGraph, in reference_test.go)
// so the speedup is measured inside one binary on identical inputs. The
// shared fixture is a 10k-node Chung–Lu graph with a heavy-tailed degree
// sequence, the workload the paper's pipeline actually runs on.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/structural"
)

const benchNodes = 10000

var (
	benchOnce  sync.Once
	benchCSR   *graph.Graph
	benchEdges []graph.Edge
)

// benchDegrees returns a heavy-tailed (Pareto-ish, α ≈ 2) degree sequence
// with an even sum, the shape Chung–Lu models are used with.
func benchDegrees(rng *rand.Rand, n, maxDeg int) []int {
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

// benchFixture lazily builds the shared 10k-node Chung–Lu graph in CSR form
// and its edge list.
func benchFixture() (*graph.Graph, []graph.Edge) {
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		degs := benchDegrees(rng, benchNodes, 300)
		sampler := structural.NewNodeSampler(degs, nil)
		target := 0
		for _, d := range degs {
			target += d
		}
		target /= 2
		benchCSR = structural.GenerateCL(rng, benchNodes, sampler, target, nil, 1)
		benchEdges = benchCSR.Edges()
	})
	return benchCSR, benchEdges
}

func BenchmarkBuildBuilderFinalize(b *testing.B) {
	_, edges := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := graph.NewBuilder(benchNodes, 0)
		for _, e := range edges {
			bl.AddEdge(e.U, e.V)
		}
		if bl.Finalize().NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

// benchShuffled returns the fixture's edges in a seeded random order, each
// flipped with probability 1/2. The fixture's own list is canonical and
// sorted, which no generator or upload produces, and which would hide the
// cost of a sort.
func benchShuffled() []graph.Edge {
	_, edges := benchFixture()
	rng := rand.New(rand.NewSource(3))
	out := make([]graph.Edge, len(edges))
	for i, j := range rng.Perm(len(edges)) {
		e := edges[j]
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		out[i] = e
	}
	return out
}

func BenchmarkBuildFromEdges(b *testing.B) {
	_, edges := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.FromEdges(benchNodes, 0, edges).NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

func BenchmarkBuildFromEdgesShuffled(b *testing.B) {
	edges := benchShuffled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.FromEdges(benchNodes, 0, edges).NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

// BenchmarkPackEdgesShuffled packs the shuffled fixture split into two lists,
// the shape of a two-stream Chung–Lu merge.
func BenchmarkPackEdgesShuffled(b *testing.B) {
	edges := benchShuffled()
	half := len(edges) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.PackEdges(benchNodes, edges[:half], edges[half:]).NumEdges() != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

func BenchmarkBuildMapBaseline(b *testing.B) {
	_, edges := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMapAdjGraph(benchNodes, 0)
		for _, e := range edges {
			m.addEdge(e.U, e.V)
		}
		if m.m != len(edges) {
			b.Fatal("edge count mismatch")
		}
	}
}

func BenchmarkTrianglesCSR(b *testing.B) {
	g, _ := benchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Triangles()
	}
}

func BenchmarkHasEdgeCSR(b *testing.B) {
	g, edges := benchFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if !g.HasEdge(e.U, e.V) {
			b.Fatal("edge missing")
		}
	}
}

// BenchmarkGenerateCLParallel measures the end-to-end Chung–Lu generation
// path — proposal streams, dedup, CSR packing — at several worker counts,
// unfiltered and under an AGM-style filter. The filter puts node u in class
// u mod 4, and its acceptance table spans the range a refined AGM table
// does: the smallest entry is 1/50 of the largest. On a single-core host
// the worker counts coincide; the parallel win shows on multi-core
// hardware.
func BenchmarkGenerateCLParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	degs := benchDegrees(rng, benchNodes, 300)
	sampler := structural.NewNodeSampler(degs, nil)
	target := 0
	for _, d := range degs {
		target += d
	}
	target /= 2
	accept := [4][4]float64{
		{1, 0.3, 0.05, 0.02},
		{0.3, 0.6, 0.1, 0.2},
		{0.05, 0.1, 0.4, 0.5},
		{0.02, 0.2, 0.5, 0.8},
	}
	filtered := &structural.EdgeFilter{Class: make([]int, benchNodes), Classes: 4,
		Pair: func(x, y int) float64 { return accept[x][y] }}
	for u := range filtered.Class {
		filtered.Class[u] = u % 4
	}
	for _, c := range []struct {
		name   string
		filter *structural.EdgeFilter
	}{{"", nil}, {"filtered-", filtered}} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%sworkers=%d", c.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := structural.GenerateCL(rand.New(rand.NewSource(int64(i))), benchNodes, sampler, target, c.filter, workers)
					if g.NumEdges() == 0 {
						b.Fatal("no edges generated")
					}
				}
			})
		}
	}
}

// BenchmarkConnectedComponentsManySmall labels a sparse-sample shape: 30k
// two-node components interleaved with 30k singletons (90k nodes), so every
// pair is discovered after all the singletons before it. Ordering the
// components by size must stay O(c log c) here, not O(c²).
func BenchmarkConnectedComponentsManySmall(b *testing.B) {
	const pairs = 30000
	edges := make([]graph.Edge, 0, pairs)
	for k := 0; k < pairs; k++ {
		edges = append(edges, graph.Edge{U: 3*k + 1, V: 3*k + 2})
	}
	g := graph.FromEdges(3*pairs, 0, edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comps := g.ConnectedComponents(); len(comps) != 2*pairs {
			b.Fatalf("got %d components, want %d", len(comps), 2*pairs)
		}
	}
}
