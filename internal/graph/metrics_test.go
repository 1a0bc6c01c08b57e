package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// complete returns the complete graph K_n.
func complete(n int) *Graph {
	b := NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Finalize()
}

// path returns the path graph P_n (n nodes, n-1 edges).
func path(n int) *Graph {
	b := NewBuilder(n, 0)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Finalize()
}

// star returns the star graph with one hub (node 0) and n-1 leaves.
func star(n int) *Graph {
	b := NewBuilder(n, 0)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Finalize()
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDegreeSequenceSorted(t *testing.T) {
	g := buildTriangleWithTail()
	s := g.DegreeSequence()
	want := []int{1, 2, 2, 2, 3}
	if len(s) != len(want) {
		t.Fatalf("DegreeSequence = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("DegreeSequence = %v, want %v", s, want)
		}
	}
}

func TestMaxAndAverageDegree(t *testing.T) {
	g := star(11)
	if g.MaxDegree() != 10 {
		t.Fatalf("MaxDegree = %d, want 10", g.MaxDegree())
	}
	wantAvg := 2.0 * 10 / 11
	if !almostEqual(g.AverageDegree(), wantAvg, 1e-12) {
		t.Fatalf("AverageDegree = %v, want %v", g.AverageDegree(), wantAvg)
	}
	empty := New(0, 0)
	if empty.MaxDegree() != 0 || empty.AverageDegree() != 0 {
		t.Fatal("empty graph should have zero max and average degree")
	}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int64
	}{
		{"triangle with tail", buildTriangleWithTail(), 1},
		{"K4", complete(4), 4},
		{"K5", complete(5), 10},
		{"path P6", path(6), 0},
		{"star S10", star(10), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Triangles(); got != tc.want {
				t.Fatalf("Triangles = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestWedges(t *testing.T) {
	// Star S_n has C(n-1, 2) wedges centred at the hub.
	g := star(6)
	if got := g.Wedges(); got != 10 {
		t.Fatalf("star Wedges = %d, want 10", got)
	}
	// Triangle has 3 wedges.
	if got := complete(3).Wedges(); got != 3 {
		t.Fatalf("triangle Wedges = %d, want 3", got)
	}
}

func TestLocalClustering(t *testing.T) {
	all := buildTriangleWithTail().LocalClusteringAll()
	if got := all[0]; !almostEqual(got, 1.0, 1e-12) {
		t.Fatalf("clustering of node 0 = %v, want 1", got)
	}
	// Node 2 has neighbours {0,1,3}; only {0,1} is connected → 1/3.
	if got := all[2]; !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Fatalf("clustering of node 2 = %v, want 1/3", got)
	}
	if got := all[4]; got != 0 {
		t.Fatalf("clustering of node 4 = %v, want 0 for degree-1 node", got)
	}
}

// pairClustering is the brute-force C_i: the share of node i's neighbour
// pairs that are adjacent.
func pairClustering(g *Graph, i int) float64 {
	nb := g.NeighborsView(i)
	if len(nb) < 2 {
		return 0
	}
	closed := 0
	for a := range nb {
		for b := a + 1; b < len(nb); b++ {
			if g.HasEdge(int(nb[a]), int(nb[b])) {
				closed++
			}
		}
	}
	return 2 * float64(closed) / float64(len(nb)*(len(nb)-1))
}

func TestLocalClusteringAllMatchesPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 0.12, 0)
	all := g.LocalClusteringAll()
	for i := 0; i < g.NumNodes(); i++ {
		if want := pairClustering(g, i); !almostEqual(all[i], want, 1e-12) {
			t.Fatalf("LocalClusteringAll[%d] = %v, brute force %v", i, all[i], want)
		}
	}
}

func TestAverageLocalClustering(t *testing.T) {
	// Complete graphs are fully clustered.
	if got := complete(5).AverageLocalClustering(); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("K5 AverageLocalClustering = %v, want 1", got)
	}
	// Triangle-free graphs have zero clustering.
	if got := star(8).AverageLocalClustering(); got != 0 {
		t.Fatalf("star AverageLocalClustering = %v, want 0", got)
	}
	if got := New(0, 0).AverageLocalClustering(); got != 0 {
		t.Fatalf("empty graph AverageLocalClustering = %v, want 0", got)
	}
}

func TestGlobalClustering(t *testing.T) {
	if got := complete(4).GlobalClustering(); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("K4 GlobalClustering = %v, want 1", got)
	}
	if got := path(5).GlobalClustering(); got != 0 {
		t.Fatalf("path GlobalClustering = %v, want 0", got)
	}
	// Triangle with tail: 1 triangle, wedges = 1+1+3+1+0 = ...
	g := buildTriangleWithTail()
	wedges := g.Wedges()
	want := 3.0 / float64(wedges)
	if got := g.GlobalClustering(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("GlobalClustering = %v, want %v", got, want)
	}
	if got := New(3, 0).GlobalClustering(); got != 0 {
		t.Fatalf("edgeless GlobalClustering = %v, want 0", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := buildTriangleWithTail()
	h := g.DegreeHistogram()
	if h[1] != 1 || h[2] != 3 || h[3] != 1 {
		t.Fatalf("DegreeHistogram = %v, want map[1:1 2:3 3:1]", h)
	}
}

func TestSummarize(t *testing.T) {
	g := buildTriangleWithTail()
	s := g.Summarize()
	if s.Nodes != 5 || s.Edges != 5 || s.MaxDegree != 3 || s.Triangles != 1 || s.Attributes != 2 {
		t.Fatalf("Summarize = %+v", s)
	}
	if !almostEqual(s.AverageDegree, 2, 1e-12) {
		t.Fatalf("Summarize AverageDegree = %v, want 2", s.AverageDegree)
	}
}

// Property: for K_n, triangles = C(n,3) and every local clustering coefficient
// is exactly one.
func TestCompleteGraphTrianglesProperty(t *testing.T) {
	for n := 3; n <= 12; n++ {
		g := complete(n)
		want := int64(n * (n - 1) * (n - 2) / 6)
		if got := g.Triangles(); got != want {
			t.Fatalf("K%d Triangles = %d, want %d", n, got, want)
		}
		for _, c := range g.LocalClusteringAll() {
			if !almostEqual(c, 1, 1e-12) {
				t.Fatalf("K%d has local clustering %v != 1", n, c)
			}
		}
	}
}

// Property: 3·Triangles ≤ Wedges for all graphs (each triangle contributes 3
// wedges), and the global clustering coefficient therefore lies in [0, 1].
func TestClusteringBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40, 0.12, 0)
		tri, wed := g.Triangles(), g.Wedges()
		if 3*tri > wed {
			return false
		}
		c := g.GlobalClustering()
		return c >= 0 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing an edge never increases the triangle count, and the drop
// equals the number of common neighbours of its endpoints.
func TestTriangleDeltaOnEdgeRemovalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 0.2, 0)
		edges := g.Edges()
		if len(edges) == 0 {
			return true
		}
		e := edges[rng.Intn(len(edges))]
		before := g.Triangles()
		cn := int64(g.CommonNeighbors(e.U, e.V))
		b := g.Builder()
		b.RemoveEdge(e.U, e.V)
		after := b.Finalize().Triangles()
		return before-after == cn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
