package attrs

import (
	"math/rand"
	"reflect"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// determinismWorkers are the process-default worker counts the per-count
// determinism tests select; the first, 1, is the sequential reference.
var determinismWorkers = []int{1, 2, 3, 5, 8}

// histFixture builds an attributed graph; big enough (n=5000, ~15k edges)
// to clear the node and edge sharding thresholds when big is true, tiny
// otherwise (exercising the sequential fallback).
func histFixture(tb testing.TB, big bool) *graph.Graph {
	tb.Helper()
	n, perNode := 60, 2
	if big {
		n, perNode = 5000, 3
	}
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Edge, 0, perNode*n)
	for i := 0; i < perNode*n; i++ {
		u := int(float64(n) * rng.Float64() * rng.Float64())
		edges = append(edges, graph.Edge{U: u, V: rng.Intn(n)})
	}
	g := graph.FromEdges(n, 0, edges)
	attrs := make([]graph.AttrVector, n)
	for i := range attrs {
		attrs[i] = graph.AttrVector(rng.Uint64() & 7)
	}
	g = g.WithAttributes(3, attrs)
	if big && (g.NumNodes() < parallel.MinShardEdges || g.NumEdges() < parallel.MinShardEdges) {
		tb.Fatalf("fixture has %d nodes and %d edges, below the sharding threshold", g.NumNodes(), g.NumEdges())
	}
	return g
}

func TestNodeConfigCountsWithMatchesSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	for _, big := range []bool{false, true} {
		g := histFixture(t, big)
		want := make([]float64, NumNodeConfigs(g.NumAttributes()))
		for i := 0; i < g.NumNodes(); i++ {
			want[NodeConfig(g.Attr(i), g.NumAttributes())]++
		}
		for _, workers := range determinismWorkers {
			parallel.SetParallelism(workers)
			if got := NodeConfigCounts(g); !reflect.DeepEqual(want, got) {
				t.Errorf("big=%t workers=%d: node-config counts differ from the sequential loop", big, workers)
			}
		}
	}
}

func TestEdgeConfigCountsWithMatchesSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	for _, big := range []bool{false, true} {
		g := histFixture(t, big)
		want := make([]float64, NumEdgeConfigs(g.NumAttributes()))
		g.ForEachEdge(func(u, v int) bool {
			want[EdgeConfig(g.Attr(u), g.Attr(v), g.NumAttributes())]++
			return true
		})
		for _, workers := range determinismWorkers {
			parallel.SetParallelism(workers)
			if got := EdgeConfigCounts(g); !reflect.DeepEqual(want, got) {
				t.Errorf("big=%t workers=%d: edge-config counts differ from the sequential loop", big, workers)
			}
		}
	}
}

// TestLearnDPWithMatchesSequential pins that the sharded counting pass does
// not perturb the privacy mechanisms: equal rng seeds give bit-identical
// released estimates at every worker count.
func TestLearnDPWithMatchesSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	g := histFixture(t, true)
	wantX := LearnAttributesDP(rand.New(rand.NewSource(9)), g, 0.5)
	wantF := LearnCorrelationsDP(rand.New(rand.NewSource(9)), g, 0.5, 12)
	for _, workers := range determinismWorkers[1:] {
		parallel.SetParallelism(workers)
		if got := LearnAttributesDP(rand.New(rand.NewSource(9)), g, 0.5); !reflect.DeepEqual(wantX, got) {
			t.Errorf("workers=%d: LearnAttributesDP differs from sequential", workers)
		}
		if got := LearnCorrelationsDP(rand.New(rand.NewSource(9)), g, 0.5, 12); !reflect.DeepEqual(wantF, got) {
			t.Errorf("workers=%d: LearnCorrelationsDP differs from sequential", workers)
		}
	}
}
