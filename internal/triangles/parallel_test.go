package triangles

import (
	"math/rand"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// determinismWorkers are the process-default worker counts the per-count
// determinism tests select; the first, 1, is the sequential reference.
var determinismWorkers = []int{1, 2, 3, 5, 8}

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

// TestMaxCommonNeighborsWithMatchesSequential checks the Ladder's two exact
// measurements, and the released count at a fixed seed, at every
// process-default worker count.
func TestMaxCommonNeighborsWithMatchesSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	for _, tc := range []struct {
		seed int64
		hub  bool
	}{{1, false}, {2, false}, {3, true}, {4, true}} {
		g := fixtureGraph(t, tc.seed, 2000, tc.hub)
		parallel.SetParallelism(1)
		wantTri, wantCN := g.TrianglesAndMaxCommonNeighbors()
		wantCount := PrivateCount(rand.New(rand.NewSource(tc.seed)), g, 0.5)
		for _, workers := range determinismWorkers[1:] {
			parallel.SetParallelism(workers)
			if tri, cn := g.TrianglesAndMaxCommonNeighbors(); tri != wantTri || cn != wantCN {
				t.Fatalf("seed %d hub %v workers %d: (triangles, maxCN) = (%d, %d), want (%d, %d)",
					tc.seed, tc.hub, workers, tri, cn, wantTri, wantCN)
			}
			if got := PrivateCount(rand.New(rand.NewSource(tc.seed)), g, 0.5); got != wantCount {
				t.Fatalf("seed %d hub %v workers %d: PrivateCount = %d, want %d", tc.seed, tc.hub, workers, got, wantCount)
			}
		}
	}
}

func TestMaxCommonNeighborsWithSmallGraphExact(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	// K4 minus an edge: nodes 0 and 1 share both 2 and 3.
	g := graph.FromEdges(4, 0, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	for _, workers := range determinismWorkers {
		parallel.SetParallelism(workers)
		if got := maxCommonNeighbors(g); got != 2 {
			t.Fatalf("workers %d: MaxCN = %d, want 2", workers, got)
		}
		if got := maxCommonNeighbors(graph.New(0, 0)); got != 0 {
			t.Fatalf("workers %d: empty graph MaxCN = %d", workers, got)
		}
	}
}
