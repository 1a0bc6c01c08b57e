package graph_test

// Brute-force checks of the two Ladder measurements — the triangle count and
// the maximum common-neighbour count — on shapes that stress the degree-ranked
// view: a star (every common neighbour is the hub, which a scan over only the
// heavier prefix of the middle node's row misses), K₂,ₙ (one dominant pair),
// cliques joined by bridges, many equal-degree nodes (rank ties), isolated
// nodes, tiny and edgeless graphs, and hub-heavy random graphs above the
// sharding threshold. Every case runs at several process-default worker
// counts, so the shared best and chunk cursor are exercised under the race
// detector too.

import (
	"fmt"
	"math/rand"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// measurementWorkers are the process-default worker counts every
// measurement is checked at.
var measurementWorkers = []int{1, 2, 3, 5, 8}

// bruteMaxCommonNeighbors is the all-pairs CommonNeighbors maximum.
func bruteMaxCommonNeighbors(g *graph.Graph) int {
	best := 0
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			best = max(best, g.CommonNeighbors(u, v))
		}
	}
	return best
}

// mapTriangles is the map-adjacency reference triangle count.
func mapTriangles(g *graph.Graph) int64 {
	ref := newMapAdjGraph(g.NumNodes(), 0)
	for _, e := range g.Edges() {
		ref.addEdge(e.U, e.V)
	}
	return ref.triangles()
}

// star is node 0 joined to n−1 leaves.
func star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i})
	}
	return graph.FromEdges(n, 0, edges)
}

// completeBipartite2 is K₂,ₙ: nodes 0 and 1 both joined to nodes 2..n+1.
func completeBipartite2(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, 2*n)
	for i := 2; i < n+2; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i}, graph.Edge{U: 1, V: i})
	}
	return graph.FromEdges(n+2, 0, edges)
}

// cliques is count disjoint cliques of size nodes each, optionally chained by
// one bridge edge from each clique's last node to the next clique's first.
func cliques(count, size int, bridged bool) *graph.Graph {
	var edges []graph.Edge
	for c := 0; c < count; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
		if bridged && c+1 < count {
			edges = append(edges, graph.Edge{U: base + size - 1, V: base + size})
		}
	}
	return graph.FromEdges(count*size, 0, edges)
}

// circulant joins every node i to i±1, …, i±k (mod n): all degrees equal.
func circulant(n, k int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			edges = append(edges, graph.Edge{U: i, V: (i + d) % n})
		}
	}
	return graph.FromEdges(n, 0, edges)
}

// hubHeavy is a random graph with three hubs over skewed background edges,
// sized to clear the sharding threshold.
func hubHeavy(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for h := 0; h < 3; h++ {
		for i := 0; i < n/3; i++ {
			edges = append(edges, graph.Edge{U: h, V: rng.Intn(n)})
		}
	}
	for i := 0; i < 4*n; i++ {
		u := int(float64(n) * rng.Float64() * rng.Float64())
		edges = append(edges, graph.Edge{U: u, V: rng.Intn(n)})
	}
	return graph.FromEdges(n, 0, edges)
}

// measurementShapes returns the named fixtures.
func measurementShapes() map[string]*graph.Graph {
	shapes := map[string]*graph.Graph{
		"empty":         graph.New(0, 0),
		"single":        graph.New(1, 0),
		"pair-no-edge":  graph.New(2, 0),
		"pair-edge":     graph.FromEdges(2, 0, []graph.Edge{{U: 0, V: 1}}),
		"edgeless":      graph.New(7, 0),
		"star":          star(9),
		"K2,5":          completeBipartite2(5),
		"K2,2100":       completeBipartite2(2100),
		"ring":          circulant(40, 1),
		"circulant":     circulant(60, 3),
		"disjoint-K4s":  cliques(5, 4, false),
		"bridged":       cliques(4, 6, true),
		"isolated-tail": graph.FromEdges(10, 0, []graph.Edge{{U: 1, V: 4}, {U: 4, V: 7}, {U: 7, V: 1}, {U: 7, V: 8}}),
	}
	for s := int64(1); s <= 3; s++ {
		shapes[fmt.Sprintf("hub-heavy-%d", s)] = hubHeavy(s, 1200)
	}
	return shapes
}

func TestMeasurementsMatchBruteForce(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	for name, g := range measurementShapes() {
		t.Run(name, func(t *testing.T) {
			wantTri, wantCN := mapTriangles(g), bruteMaxCommonNeighbors(g)
			if got := g.Builder().Triangles(); got != wantTri {
				t.Errorf("Builder().Triangles = %d, want %d", got, wantTri)
			}
			for _, w := range measurementWorkers {
				parallel.SetParallelism(w)
				if got := g.Triangles(); got != wantTri {
					t.Errorf("workers %d: Triangles = %d, want %d", w, got, wantTri)
				}
				tri, cn := g.TrianglesAndMaxCommonNeighbors()
				if tri != wantTri || cn != wantCN {
					t.Errorf("workers %d: TrianglesAndMaxCommonNeighbors = (%d, %d), want (%d, %d)",
						w, tri, cn, wantTri, wantCN)
				}
			}
		})
	}
}

// TestMeasurementShapesAboveShardingThreshold guards the fixtures meant to
// drive the multi-worker path.
func TestMeasurementShapesAboveShardingThreshold(t *testing.T) {
	shapes := measurementShapes()
	for _, name := range []string{"K2,2100", "hub-heavy-1", "hub-heavy-2", "hub-heavy-3"} {
		if m := shapes[name].NumEdges(); m < parallel.MinShardEdges {
			t.Errorf("%s has %d edges, below the sharding threshold %d", name, m, parallel.MinShardEdges)
		}
	}
}
