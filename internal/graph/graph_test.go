package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildTriangleWithTailB returns a Builder holding the 5-node graph
//
//	0-1, 1-2, 2-0 (a triangle), 2-3, 3-4 (a tail)
//
// used by several tests.
func buildTriangleWithTailB() *Builder {
	b := NewBuilder(5, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	return b
}

// buildTriangleWithTail returns the finalized CSR form of the same graph.
func buildTriangleWithTail() *Graph {
	return buildTriangleWithTailB().Finalize()
}

// randomGraph returns an Erdős–Rényi style random graph used as fuzz input.
func randomGraph(rng *rand.Rand, n int, p float64, w int) *Graph {
	b := NewBuilder(n, w)
	for i := 0; i < n; i++ {
		if w > 0 {
			b.SetAttr(i, AttrVector(rng.Uint64()))
		}
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Finalize()
}

func TestNewGraphEmpty(t *testing.T) {
	g := New(10, 3)
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.NumAttributes() != 3 {
		t.Fatalf("NumAttributes = %d, want 3", g.NumAttributes())
	}
	for i := 0; i < 10; i++ {
		if g.Degree(i) != 0 {
			t.Fatalf("Degree(%d) = %d, want 0", i, g.Degree(i))
		}
	}
}

func TestNewPanicsOnBadArguments(t *testing.T) {
	cases := []struct {
		name string
		n, w int
	}{
		{"negative nodes", -1, 0},
		{"negative attrs", 1, -1},
		{"too many attrs", 1, MaxAttributes + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d, %d) did not panic", tc.n, tc.w)
				}
			}()
			New(tc.n, tc.w)
		})
		t.Run(tc.name+" builder", func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBuilder(%d, %d) did not panic", tc.n, tc.w)
				}
			}()
			NewBuilder(tc.n, tc.w)
		})
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := buildTriangleWithTail()
	if got := g.Degree(2); got != 3 {
		t.Fatalf("Degree(2) = %d, want 3", got)
	}
	want := []int{0, 1, 3}
	view := g.NeighborsView(2)
	if len(view) != len(want) {
		t.Fatalf("NeighborsView(2) = %v, want %v", view, want)
	}
	for i := range want {
		if int(view[i]) != want[i] {
			t.Fatalf("NeighborsView(2) = %v, want %v (sorted)", view, want)
		}
	}
}

func TestHasEdgeOnGraph(t *testing.T) {
	g := buildTriangleWithTail()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("HasEdge(0,4) = true for a missing edge")
	}
	if g.HasEdge(3, 3) {
		t.Fatal("HasEdge(3,3) = true for a self loop")
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	b := NewBuilder(4, 2)
	b.SetAttr(0, 0)
	b.SetAttr(1, 1)
	b.SetAttr(2, 2)
	b.SetAttr(3, 3)
	g := b.Finalize()
	for i := 0; i < 4; i++ {
		if got := g.Attr(i); got != AttrVector(i) {
			t.Fatalf("Attr(%d) = %d, want %d", i, got, i)
		}
	}
	// Bits above the declared width must be masked off.
	b.SetAttr(0, 0b1111)
	if got := b.Finalize().Attr(0); got != 0b11 {
		t.Fatalf("Attr(0) = %b, want masked value 11", got)
	}
}

func TestWithAttributes(t *testing.T) {
	g := buildTriangleWithTail()
	vecs := []AttrVector{0b111, 1, 2, 3, 0}
	h := g.WithAttributes(2, vecs)
	if h.NumEdges() != g.NumEdges() || h.NumNodes() != g.NumNodes() {
		t.Fatal("WithAttributes changed the topology")
	}
	if h.Attr(0) != 0b11 {
		t.Fatalf("Attr(0) = %b, want masked 11", h.Attr(0))
	}
	if h.Attr(3) != 3 {
		t.Fatalf("Attr(3) = %d, want 3", h.Attr(3))
	}
	// The receiver keeps its own attributes.
	if g.Attr(0) != 0 {
		t.Fatal("WithAttributes mutated the receiver")
	}
	// Mutating the caller's slice afterwards must not leak into the graph.
	vecs[1] = 0b10
	if h.Attr(1) != 1 {
		t.Fatal("WithAttributes aliased the caller's slice")
	}
}

func TestAttrVectorBitHelpers(t *testing.T) {
	var a AttrVector
	a = a.WithBit(0, 1).WithBit(3, 1)
	if a != 0b1001 {
		t.Fatalf("WithBit composition = %b, want 1001", a)
	}
	if a.Bit(0) != 1 || a.Bit(1) != 0 || a.Bit(3) != 1 {
		t.Fatalf("Bit readback mismatch for %b", a)
	}
	a = a.WithBit(3, 0)
	if a != 0b0001 {
		t.Fatalf("WithBit clear = %b, want 0001", a)
	}
}

func TestEdgesCanonicalOrder(t *testing.T) {
	g := buildTriangleWithTail()
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d edges, want %d", len(edges), g.NumEdges())
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %v not in canonical endpoint order", e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
				t.Fatalf("edges out of canonical order: %v before %v", prev, e)
			}
		}
	}
}

func TestEdgeCanonical(t *testing.T) {
	e := Edge{U: 5, V: 2}.Canonical()
	if e.U != 2 || e.V != 5 {
		t.Fatalf("Canonical() = %v, want {2 5}", e)
	}
	e = Edge{U: 1, V: 4}.Canonical()
	if e.U != 1 || e.V != 4 {
		t.Fatalf("Canonical() = %v, want {1 4}", e)
	}
}

func TestFinalizedGraphImmuneToBuilderMutation(t *testing.T) {
	b := buildTriangleWithTailB()
	b.SetAttr(0, 3)
	g := b.Finalize()
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	// Keep mutating the builder: the finalized graph must not change.
	b.AddEdge(0, 4)
	b.SetAttr(1, 1)
	b.RemoveEdge(0, 1)
	if g.HasEdge(0, 4) {
		t.Fatal("builder mutation added an edge to a finalized graph")
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("builder mutation removed an edge from a finalized graph")
	}
	if g.Attr(1) != 0 {
		t.Fatal("builder mutation changed a finalized graph's attributes")
	}
	if !g.Equal(c) {
		t.Fatal("clone diverged from original after builder mutation")
	}
}

func TestFromEdgesDropsDuplicatesAndLoops(t *testing.T) {
	g := FromEdges(4, 1, []Edge{{0, 1}, {1, 0}, {2, 2}, {2, 3}})
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) || g.HasEdge(2, 2) {
		t.Fatal("FromEdges produced wrong edge set")
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := buildTriangleWithTail()
	if got := g.CommonNeighbors(0, 1); got != 1 {
		t.Fatalf("CommonNeighbors(0,1) = %d, want 1", got)
	}
	if got := g.CommonNeighbors(0, 4); got != 0 {
		t.Fatalf("CommonNeighbors(0,4) = %d, want 0", got)
	}
	if got := g.CommonNeighbors(1, 3); got != 1 {
		t.Fatalf("CommonNeighbors(1,3) = %d, want 1 (node 2)", got)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := buildTriangleWithTail()
	if !a.Equal(buildTriangleWithTail()) {
		t.Fatal("identical graphs not Equal")
	}
	b := buildTriangleWithTailB()
	b.SetAttr(0, 1)
	if a.Equal(b.Finalize()) {
		t.Fatal("Equal ignored attribute difference")
	}
	b = buildTriangleWithTailB()
	b.RemoveEdge(3, 4)
	b.AddEdge(0, 4)
	if a.Equal(b.Finalize()) {
		t.Fatal("Equal ignored edge difference")
	}
}

func TestValidNodePanics(t *testing.T) {
	g := New(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Degree on out-of-range node did not panic")
		}
	}()
	g.Degree(5)
}

// Property: the handshake lemma holds for random graphs — the sum of degrees
// equals twice the edge count.
func TestHandshakeLemmaProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30+rng.Intn(40), 0.1, 2)
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency is symmetric for random graphs.
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 25, 0.15, 0)
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.NeighborsView(u) {
				if !g.HasEdge(int(v), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEachEdge visits exactly NumEdges edges and each exactly once.
func TestForEachEdgeVisitsEachOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 0.1, 0)
		seen := make(map[Edge]bool)
		g.ForEachEdge(func(u, v int) bool {
			seen[Edge{u, v}.Canonical()] = true
			return true
		})
		return len(seen) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: FromEdges agrees with incremental Builder construction on the
// same (possibly messy) edge list.
func TestFromEdgesMatchesBuilderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(20)
		edges := make([]Edge, 60)
		for i := range edges {
			edges[i] = Edge{U: rng.Intn(n), V: rng.Intn(n)}
		}
		b := NewBuilder(n, 0)
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		return b.Finalize().Equal(FromEdges(n, 0, edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
