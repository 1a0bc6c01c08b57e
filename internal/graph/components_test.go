package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// twoComponentsB returns a Builder holding a 4-node cycle {0..3}, a 3-node
// path {4,5,6} and an isolated node 7.
func twoComponentsB() *Builder {
	b := NewBuilder(8, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	return b
}

// twoComponents returns the finalized CSR form of the same graph.
func twoComponents() *Graph {
	return twoComponentsB().Finalize()
}

// TestConnectedComponentsSizesAndOrder pins the component order: descending
// size, and among equal sizes discovery order, so the component with the
// smaller minimum node ID comes first. OrphanedNodes relies on it to pick
// the main component when the largest size is tied.
func TestConnectedComponentsSizesAndOrder(t *testing.T) {
	g := twoComponents()
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("component sizes = %v, want [4 3 1] (descending)", sizes)
	}

	// Ties. Discovery order: {0}, {1,5}, {2,3,4}, {6,9}, {7}, {8,10,11}.
	g = FromEdges(12, 0, []Edge{
		{U: 1, V: 5},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 2, V: 4},
		{U: 6, V: 9},
		{U: 8, V: 10}, {U: 10, V: 11},
	})
	want := [][]int{{2, 3, 4}, {8, 10, 11}, {1, 5}, {6, 9}, {0}, {7}}
	if got := g.ConnectedComponents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ConnectedComponents = %v, want %v", got, want)
	}
	if got, want := g.OrphanedNodes(), []int{0, 1, 5, 6, 7, 8, 9, 10, 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("OrphanedNodes = %v, want %v", got, want)
	}
	if got, want := g.Builder().OrphanedNodes(), g.OrphanedNodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Builder.OrphanedNodes = %v, want %v", got, want)
	}

	// The same rule on random sparse graphs, where many sizes tie.
	for seed := int64(0); seed < 50; seed++ {
		comps := randomGraph(rand.New(rand.NewSource(seed)), 200, 0.006, 0).ConnectedComponents()
		for i := 1; i < len(comps); i++ {
			a, b := comps[i-1], comps[i]
			if len(a) < len(b) || len(a) == len(b) && slices.Min(a) > slices.Min(b) {
				t.Fatalf("seed %d: component %d (size %d, min %d) precedes component %d (size %d, min %d)",
					seed, i-1, len(a), slices.Min(a), i, len(b), slices.Min(b))
			}
		}
	}
}

func TestOrphanedNodes(t *testing.T) {
	g := twoComponents()
	orphans := g.OrphanedNodes()
	want := map[int]bool{4: true, 5: true, 6: true, 7: true}
	if len(orphans) != len(want) {
		t.Fatalf("OrphanedNodes = %v, want %v", orphans, want)
	}
	for _, v := range orphans {
		if !want[v] {
			t.Fatalf("unexpected orphan %d", v)
		}
	}
	if got := buildTriangleWithTail().OrphanedNodes(); len(got) != 0 {
		t.Fatalf("connected graph has orphans %v", got)
	}
	if got := New(0, 0).OrphanedNodes(); got != nil {
		t.Fatalf("empty graph has orphans %v", got)
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := buildTriangleWithTailB()
	b.SetAttr(0, 1)
	b.SetAttr(2, 3)
	g := b.Finalize()
	sub, orig := g.InducedSubgraph([]int{0, 1, 2})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced subgraph has %d nodes, %d edges; want 3, 3", sub.NumNodes(), sub.NumEdges())
	}
	// Attributes must follow nodes through relabelling.
	for newID, old := range orig {
		if sub.Attr(newID) != g.Attr(old) {
			t.Fatalf("attribute of node %d not carried into subgraph", old)
		}
	}
	// Edges not inside the node set must be dropped.
	sub2, _ := g.InducedSubgraph([]int{2, 3, 4})
	if sub2.NumEdges() != 2 {
		t.Fatalf("induced subgraph on tail has %d edges, want 2", sub2.NumEdges())
	}
}

func TestInducedSubgraphCollapsesDuplicates(t *testing.T) {
	g := buildTriangleWithTail()
	sub, orig := g.InducedSubgraph([]int{1, 1, 2, 2})
	if sub.NumNodes() != 2 || len(orig) != 2 {
		t.Fatalf("duplicates not collapsed: %d nodes", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("subgraph edges = %d, want 1", sub.NumEdges())
	}
}

// Property: component sizes always sum to the node count, and every component
// is internally connected.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 50, 0.03, 0)
		comps := g.ConnectedComponents()
		total := 0
		for _, c := range comps {
			total += len(c)
			sub, _ := g.InducedSubgraph(c)
			if len(sub.ConnectedComponents()) != 1 {
				return false
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
