package triangles

import (
	"math/rand"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// fixtureGraph builds a random graph above the sharding threshold with an
// optional hub to exercise the skewed-cost split.
func fixtureGraph(t testing.TB, seed int64, n int, hub bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 5*n)
	for k := 0; k < 4*n; k++ {
		edges = append(edges, graph.Edge{U: rng.Intn(n), V: rng.Intn(n)})
	}
	if hub {
		for i := 1; i < n/2; i++ {
			edges = append(edges, graph.Edge{U: 0, V: i})
		}
	}
	g := graph.FromEdges(n, 0, edges)
	if g.NumEdges() < parallel.MinShardEdges {
		t.Fatalf("fixture below sharding threshold: %d edges", g.NumEdges())
	}
	return g
}

func TestMaxCommonNeighborsWithMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		hub  bool
	}{{1, false}, {2, false}, {3, true}, {4, true}} {
		g := fixtureGraph(t, tc.seed, 2000, tc.hub)
		want := MaxCommonNeighborsWith(g, 1)
		for _, workers := range []int{2, 3, 8, 32} {
			if got := MaxCommonNeighborsWith(g, workers); got != want {
				t.Fatalf("seed %d hub %v workers %d: MaxCN = %d, want %d",
					tc.seed, tc.hub, workers, got, want)
			}
		}
	}
}

func TestMaxCommonNeighborsWithSmallGraphExact(t *testing.T) {
	// K4 minus an edge: nodes 0 and 1 share both 2 and 3.
	g := graph.FromEdges(4, 0, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	for _, workers := range []int{1, 4} {
		if got := MaxCommonNeighborsWith(g, workers); got != 2 {
			t.Fatalf("workers %d: MaxCN = %d, want 2", workers, got)
		}
	}
	if got := MaxCommonNeighborsWith(graph.New(0, 0), 4); got != 0 {
		t.Fatalf("empty graph MaxCN = %d", got)
	}
}
