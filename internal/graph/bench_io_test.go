package graph_test

// Codec benchmarks: the binary CSR snapshot (binary.go) against the
// line-oriented "agmdp graph" text format (io.go), on a heavy-tailed
// Chung–Lu graph with well over 100k edges — the service-restart and
// wire-transfer workload the graph store runs.

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/structural"
)

const ioBenchNodes = 30000

var (
	ioBenchOnce   sync.Once
	ioBenchGraph  *graph.Graph
	ioBenchText   []byte
	ioBenchBinary []byte
)

// ioBenchFixture lazily builds a 30k-node heavy-tailed graph (≥100k edges,
// 2 attributes) and its text and binary encodings.
func ioBenchFixture(tb testing.TB) (*graph.Graph, []byte, []byte) {
	ioBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(5))
		degs := benchDegrees(rng, ioBenchNodes, 400)
		total := 0
		for i := range degs {
			degs[i] += 6 // lift the average degree so m clears 100k
			total += degs[i]
		}
		sampler := structural.NewNodeSampler(degs, nil)
		g := structural.GenerateCL(rng, ioBenchNodes, sampler, total/2, nil, 1)
		attrs := make([]graph.AttrVector, g.NumNodes())
		for i := range attrs {
			attrs[i] = graph.AttrVector(rng.Uint64() & 3)
		}
		ioBenchGraph = g.WithAttributes(2, attrs)

		var text bytes.Buffer
		if err := ioBenchGraph.WriteGraph(&text); err != nil {
			panic(err)
		}
		ioBenchText = text.Bytes()
		var bin bytes.Buffer
		if err := graph.WriteBinaryTo(&bin, ioBenchGraph); err != nil {
			panic(err)
		}
		ioBenchBinary = bin.Bytes()
	})
	if ioBenchGraph.NumEdges() < 100_000 {
		tb.Fatalf("IO bench fixture has only %d edges, want >= 100k", ioBenchGraph.NumEdges())
	}
	return ioBenchGraph, ioBenchText, ioBenchBinary
}

func BenchmarkWriteGraphText(b *testing.B) {
	g, text, _ := ioBenchFixture(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteGraph(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteGraphBinary(b *testing.B) {
	g, _, bin := ioBenchFixture(b)
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.WriteBinaryTo(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadGraphText(b *testing.B) {
	_, text, _ := ioBenchFixture(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadGraph(bytes.NewReader(text), math.MaxInt32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadGraphBinary(b *testing.B) {
	_, _, bin := ioBenchFixture(b)
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadBinary(bytes.NewReader(bin)); err != nil {
			b.Fatal(err)
		}
	}
}
