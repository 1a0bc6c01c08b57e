package graph_test

// The serving stage of the streaming sampling pipeline — encoding straight
// from the sampler's still-mutable builder — against the materialised
// baseline that packs a CSR graph first and then encodes it. This pair is
// where the O(row) memory claim lives: the materialised path allocates the
// full offsets/neighbors/attrs arrays per request, the streamed path only
// the encoder's bounded buffers.

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/structural"
)

var (
	streamBenchOnce sync.Once
	streamBenchSrc  graph.RowSource
	streamBenchSize int64
)

// streamBenchFixture builds what the sampling pipeline hands the server: a
// heavy-tailed Chung–Lu generation left unpacked in its builder, with the
// sampled attribute vectors overlaid lazily.
func streamBenchFixture(tb testing.TB) (graph.RowSource, int64) {
	streamBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(6))
		degs := benchDegrees(rng, ioBenchNodes, 400)
		for i := range degs {
			degs[i] += 6
		}
		b := structural.FCL{}.Generate(rng, ioBenchNodes, structural.Params{Degrees: degs}, nil)
		vecs := make([]graph.AttrVector, ioBenchNodes)
		for i := range vecs {
			vecs[i] = graph.AttrVector(rng.Uint64() & 3)
		}
		streamBenchSrc = graph.SourceWithAttributes(b, 2, vecs)
		streamBenchSize = graph.SourceBinarySize(streamBenchSrc)
	})
	if streamBenchSrc.NumEdges() < 100_000 {
		tb.Fatalf("stream bench fixture has only %d edges, want >= 100k", streamBenchSrc.NumEdges())
	}
	return streamBenchSrc, streamBenchSize
}

// BenchmarkServeSampledMaterialized is the materialised serving stage: pack
// the sampled builder into a CSR graph, then encode the snapshot.
func BenchmarkServeSampledMaterialized(b *testing.B) {
	src, size := streamBenchFixture(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.Materialize(src)
		if err := graph.WriteBinaryTo(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSampledStreamed is the streamed serving stage: encode the
// snapshot straight from the builder, no packed arrays.
func BenchmarkServeSampledStreamed(b *testing.B) {
	src, size := streamBenchFixture(b)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.WriteBinaryTo(io.Discard, src); err != nil {
			b.Fatal(err)
		}
	}
}
