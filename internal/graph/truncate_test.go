package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTruncateBoundsDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 80, 0.15, 0)
	for _, k := range []int{1, 2, 3, 5, 10, 1000} {
		tr := g.Truncate(k)
		if tr.MaxDegree() > k {
			t.Fatalf("Truncate(%d) produced a node with degree > %d (max %d)", k, k, tr.MaxDegree())
		}
	}
}

func TestTruncateLargeKIsIdentity(t *testing.T) {
	g := buildTriangleWithTail()
	tr := g.Truncate(g.MaxDegree())
	if !tr.Equal(g) {
		t.Fatal("Truncate with k = dmax modified the graph")
	}
}

func TestTruncateZeroRemovesAllEdges(t *testing.T) {
	g := buildTriangleWithTail()
	tr := g.Truncate(0)
	if tr.NumEdges() != 0 {
		t.Fatalf("Truncate(0) left %d edges", tr.NumEdges())
	}
	if tr.NumNodes() != g.NumNodes() {
		t.Fatal("Truncate(0) changed the node count")
	}
}

func TestTruncateDoesNotMutateInput(t *testing.T) {
	g := star(10)
	before := g.NumEdges()
	_ = g.Truncate(2)
	if g.NumEdges() != before {
		t.Fatal("Truncate mutated the receiver")
	}
}

func TestTruncatePreservesAttributes(t *testing.T) {
	b := buildTriangleWithTailB()
	b.SetAttr(0, 3)
	b.SetAttr(3, 1)
	g := b.Finalize()
	tr := g.Truncate(1)
	for i := 0; i < g.NumNodes(); i++ {
		if tr.Attr(i) != g.Attr(i) {
			t.Fatalf("Truncate changed attribute of node %d", i)
		}
	}
}

func TestTruncateStarGraph(t *testing.T) {
	// In a star with hub degree 9, truncating to k keeps exactly k edges:
	// the canonical order processes hub edges one by one and stops deleting
	// once the hub degree drops to k.
	g := star(10)
	for _, k := range []int{1, 3, 5, 9} {
		tr := g.Truncate(k)
		if tr.NumEdges() != k {
			t.Fatalf("star Truncate(%d) kept %d edges, want %d", k, tr.NumEdges(), k)
		}
		if tr.Degree(0) != k {
			t.Fatalf("star Truncate(%d) hub degree = %d, want %d", k, tr.Degree(0), k)
		}
	}
}

func TestTruncateDeterministicCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 50, 0.2, 0)
	a := g.Truncate(4)
	b := g.Truncate(4)
	if !a.Equal(b) {
		t.Fatal("Truncate is not deterministic for a fixed input")
	}
}

func TestTruncatePanicsOnNegativeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Truncate(-1) did not panic")
		}
	}()
	buildTriangleWithTail().Truncate(-1)
}

func TestTruncationLoss(t *testing.T) {
	g := star(10)
	if got := g.NumEdges() - g.Truncate(3).NumEdges(); got != 6 {
		t.Fatalf("Truncate(3) removed %d edges, want 6", got)
	}
	if got := g.NumEdges() - g.Truncate(9).NumEdges(); got != 0 {
		t.Fatalf("Truncate(9) removed %d edges, want 0", got)
	}
}

// Property: truncation is a projection onto k-bounded graphs — truncating an
// already k-bounded graph is the identity (µ(µ(G,k),k) = µ(G,k)).
func TestTruncateIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40, 0.2, 0)
		k := 1 + rng.Intn(8)
		once := g.Truncate(k)
		twice := once.Truncate(k)
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the edge-adjacency stability that Proposition 1 relies on — adding
// one edge to the input changes the truncated graph by at most 3 edges
// (symmetric difference).
func TestTruncateEdgeStabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 0.15, 0)
		k := 2 + rng.Intn(6)
		// Pick a non-edge to add.
		var u, v int
		for tries := 0; tries < 100; tries++ {
			u, v = rng.Intn(30), rng.Intn(30)
			if u != v && !g.HasEdge(u, v) {
				break
			}
		}
		if u == v || g.HasEdge(u, v) {
			return true // dense corner case; skip
		}
		gb := g.Builder()
		gb.AddEdge(u, v)
		a := g.Truncate(k)
		b := gb.Finalize().Truncate(k)
		return symmetricDifference(a, b) <= 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// symmetricDifference counts edges present in exactly one of the two graphs.
func symmetricDifference(a, b *Graph) int {
	diff := 0
	a.ForEachEdge(func(u, v int) bool {
		if !b.HasEdge(u, v) {
			diff++
		}
		return true
	})
	b.ForEachEdge(func(u, v int) bool {
		if !a.HasEdge(u, v) {
			diff++
		}
		return true
	})
	return diff
}
