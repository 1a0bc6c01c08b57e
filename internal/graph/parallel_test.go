package graph

import (
	"math"
	"math/rand"
	"testing"

	"agmdp/internal/parallel"
)

// determinismWorkers are the process-default worker counts the per-count
// determinism tests select; the first, 1, is the sequential reference.
var determinismWorkers = []int{1, 2, 3, 5, 8}

// randomTestGraph builds a Chung–Lu-flavoured random graph with a heavy-
// tailed degree profile.
func randomTestGraph(t testing.TB, seed int64, n, edgeFactor int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n*edgeFactor)
	for k := 0; k < n*edgeFactor; k++ {
		u := rng.Intn(n)
		// Skew: a tenth of the endpoints land on the first few hub nodes.
		if rng.Intn(10) == 0 {
			u = rng.Intn(1 + n/100)
		}
		v := rng.Intn(n)
		edges = append(edges, Edge{U: u, V: v})
	}
	return FromEdges(n, 0, edges)
}

// analytics is every sharded pass's result on one graph.
type analytics struct {
	tri    int64
	cc     []float64
	wedges int64
	hist   map[int]int
	degs   []int
}

func measureAll(g *Graph) analytics {
	return analytics{g.Triangles(), g.LocalClusteringAll(), g.Wedges(), g.DegreeHistogram(), g.Degrees()}
}

// TestParallelAnalyticsMatchSequential runs every sharded pass at each
// process-default worker count, on graphs above both sharding thresholds,
// and requires bit-identical results.
func TestParallelAnalyticsMatchSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	for _, seed := range []int64{1, 2, 3} {
		g := randomTestGraph(t, seed, 20000, 2)
		if g.NumEdges() < minShardEdges || g.NumNodes() < minShardNodes {
			t.Fatalf("fixture too small to engage sharding: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		}
		parallel.SetParallelism(1)
		want := measureAll(g)
		for _, workers := range determinismWorkers[1:] {
			parallel.SetParallelism(workers)
			got := measureAll(g)
			if got.tri != want.tri {
				t.Fatalf("seed %d workers %d: Triangles = %d, want %d", seed, workers, got.tri, want.tri)
			}
			for i := range want.cc {
				if got.cc[i] != want.cc[i] {
					t.Fatalf("seed %d workers %d: clustering[%d] = %v, want %v (must be bit-identical)",
						seed, workers, i, got.cc[i], want.cc[i])
				}
			}
			if got.wedges != want.wedges {
				t.Fatalf("seed %d workers %d: Wedges = %d, want %d", seed, workers, got.wedges, want.wedges)
			}
			if len(got.hist) != len(want.hist) {
				t.Fatalf("seed %d workers %d: histogram size %d, want %d", seed, workers, len(got.hist), len(want.hist))
			}
			for d, c := range want.hist {
				if got.hist[d] != c {
					t.Fatalf("seed %d workers %d: histogram[%d] = %d, want %d", seed, workers, d, got.hist[d], c)
				}
			}
			for i := range got.degs {
				if got.degs[i] != int(g.offsets[i+1]-g.offsets[i]) {
					t.Fatalf("seed %d workers %d: degree[%d] wrong", seed, workers, i)
				}
			}
		}
	}
}

func TestSummarizeWithMatchesSequentialParts(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	g := randomTestGraph(t, 5, 20000, 2)
	seq := Summary{
		Nodes:              g.NumNodes(),
		Edges:              g.NumEdges(),
		MaxDegree:          g.MaxDegree(),
		AverageDegree:      g.AverageDegree(),
		Triangles:          g.Triangles(),
		AvgLocalClustering: mean(g.LocalClusteringAll()),
		GlobalClustering:   3 * float64(g.Triangles()) / float64(g.Wedges()),
		Attributes:         g.NumAttributes(),
	}
	for _, workers := range determinismWorkers {
		parallel.SetParallelism(workers)
		got := g.Summarize()
		if got.Triangles != seq.Triangles || got.Nodes != seq.Nodes || got.Edges != seq.Edges ||
			got.MaxDegree != seq.MaxDegree || got.Attributes != seq.Attributes {
			t.Fatalf("workers %d: summary counts diverged: %+v vs %+v", workers, got, seq)
		}
		if math.Abs(got.AvgLocalClustering-seq.AvgLocalClustering) > 1e-15 ||
			math.Abs(got.GlobalClustering-seq.GlobalClustering) > 1e-15 ||
			math.Abs(got.AverageDegree-seq.AverageDegree) > 1e-15 {
			t.Fatalf("workers %d: summary ratios diverged: %+v vs %+v", workers, got, seq)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestParallelAnalyticsSmallAndEmptyGraphs(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(8))
	empty := New(0, 0)
	if empty.Triangles() != 0 || empty.Wedges() != 0 {
		t.Fatal("empty graph analytics must be zero")
	}
	if got := empty.LocalClusteringAll(); len(got) != 0 {
		t.Fatal("empty graph clustering must be empty")
	}
	if got := empty.DegreeHistogram(); len(got) != 0 {
		t.Fatal("empty graph histogram must be empty")
	}
	// A triangle plus a pendant: small enough for the sequential fallback
	// however many workers the process default allows.
	g := FromEdges(4, 0, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if got := g.Triangles(); got != 1 {
		t.Fatalf("Triangles = %d, want 1", got)
	}
	if got := g.Wedges(); got != 1+1+3 {
		t.Fatalf("Wedges = %d, want 5", got)
	}
}

func TestDegreeWeightedShardsBalanceSkewedGraph(t *testing.T) {
	// One massive hub: even node-count shards would put the whole hub row in
	// one shard; degree-weighted shards must split the remaining mass so no
	// shard (beyond the unsplittable hub itself) dominates.
	n := 20000
	edges := make([]Edge, 0, 3*n)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{U: 0, V: i}) // hub
	}
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 2*n; k++ {
		edges = append(edges, Edge{U: 1 + rng.Intn(n-1), V: 1 + rng.Intn(n-1)})
	}
	g := FromEdges(n, 0, edges)
	shards := parallel.SplitWeighted(g.offsets, 8)
	total := g.offsets[n]
	var maxRow int64
	for i := 0; i < n; i++ {
		if d := g.offsets[i+1] - g.offsets[i]; d > maxRow {
			maxRow = d
		}
	}
	for _, r := range shards {
		w := g.offsets[r.Hi] - g.offsets[r.Lo]
		if w > total/8+maxRow {
			t.Fatalf("shard %+v carries weight %d of %d (max row %d): unbalanced", r, w, total, maxRow)
		}
	}
	// And the sharded analytics still agree on this pathological shape.
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	seq := g.Triangles()
	parallel.SetParallelism(8)
	if par := g.Triangles(); seq != par {
		t.Fatalf("hub graph: parallel triangles %d != sequential %d", par, seq)
	}
}
