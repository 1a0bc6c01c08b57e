package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

// TestWriteBinaryToSourcesAgree checks that a Graph and a Builder holding the
// same random graph encode to the same bytes, SourceBinarySize long, which
// DecodeBinary turns back into an equal graph.
func TestWriteBinaryToSourcesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, rng.Intn(70), rng.Intn(graph.MaxAttributes+1), rng.Float64()*0.3)
		want := encodeBinary(t, g)
		back, err := graph.DecodeBinary(want)
		if err != nil {
			t.Fatalf("trial %d: DecodeBinary: %v", trial, err)
		}
		if !g.Equal(back) {
			t.Fatalf("trial %d: decoded graph differs", trial)
		}
		for name, src := range map[string]graph.RowSource{"graph": g, "builder": g.Builder()} {
			if !bytes.Equal(encodeBinary(t, src), want) {
				t.Fatalf("trial %d %s: WriteBinaryTo differs from the graph's encoding", trial, name)
			}
			if got := graph.SourceBinarySize(src); got != int64(len(want)) {
				t.Fatalf("trial %d %s: SourceBinarySize = %d, want %d", trial, name, got, len(want))
			}
		}
	}
}

// TestSourceWithAttributesMatchesWithAttributes pins the streaming contract
// the sample pipeline relies on: an attribute overlay over a Builder or a
// Graph encodes to the exact bytes of the eagerly attributed graph.
func TestSourceWithAttributesMatchesWithAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(50, 0)
	for i := 0; i < 300; i++ {
		b.AddEdge(rng.Intn(50), rng.Intn(50))
	}
	vecs := make([]graph.AttrVector, 50)
	for i := range vecs {
		vecs[i] = graph.AttrVector(rng.Uint64())
	}
	g := b.Finalize()
	attributed := g.WithAttributes(3, vecs)
	want := encodeBinary(t, attributed)
	for name, src := range map[string]graph.RowSource{"builder": b, "graph": g} {
		overlay := graph.SourceWithAttributes(src, 3, vecs)
		if !bytes.Equal(encodeBinary(t, overlay), want) {
			t.Fatalf("%s: attribute overlay encodes differently from WithAttributes", name)
		}
		if got := graph.SourceBinarySize(overlay); got != int64(len(want)) {
			t.Fatalf("%s: SourceBinarySize = %d, want %d", name, got, len(want))
		}
	}
}

// tinySource is a minimal RowSource exercising Materialize's generic path.
type tinySource struct{ g *graph.Graph }

func (s tinySource) NumNodes() int                      { return s.g.NumNodes() }
func (s tinySource) NumEdges() int                      { return s.g.NumEdges() }
func (s tinySource) NumAttributes() int                 { return s.g.NumAttributes() }
func (s tinySource) RowDegree(u int) int                { return s.g.RowDegree(u) }
func (s tinySource) AppendRow(d []int32, u int) []int32 { return s.g.AppendRow(d, u) }
func (s tinySource) RowAttr(u int) graph.AttrVector     { return s.g.RowAttr(u) }

// TestMaterialize checks Materialize across the source flavours.
func TestMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 3, 0.2)
	if graph.Materialize(g) != g {
		t.Fatal("materializing a Graph should be the identity")
	}
	if !graph.Materialize(g.Builder()).Equal(g) {
		t.Fatal("materializing a Builder differs")
	}
	if !graph.Materialize(tinySource{g}).Equal(g) {
		t.Fatal("materializing a generic source differs")
	}
	vecs := make([]graph.AttrVector, g.NumNodes())
	for i := range vecs {
		vecs[i] = graph.AttrVector(rng.Uint64())
	}
	if !graph.Materialize(graph.SourceWithAttributes(g, 5, vecs)).Equal(g.WithAttributes(5, vecs)) {
		t.Fatal("materializing an attribute overlay differs from WithAttributes")
	}
}
