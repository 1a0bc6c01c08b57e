package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
	"agmdp/internal/structural"
)

// TestMain honours AGMDP_TEST_PARALLELISM, which CI's multi-worker race pass
// sets to force every auto-resolved parallel path onto a fixed worker count
// different from both 1 and GOMAXPROCS, exercising the sharded fit and
// analytics interleavings the default run might miss.
func TestMain(m *testing.M) {
	if v := os.Getenv("AGMDP_TEST_PARALLELISM"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad AGMDP_TEST_PARALLELISM %q: %v\n", v, err)
			os.Exit(2)
		}
		parallel.SetParallelism(n)
	}
	os.Exit(m.Run())
}

// determinismWorkers are the process-default worker counts the per-count
// determinism tests select; the first, 1, is the sequential reference.
var determinismWorkers = []int{1, 2, 3, 5, 8}

// fitFixture builds an attributed heavy-tailed graph big enough to clear
// every measurement pass's sharding threshold (n >= 2^14 nodes for the
// per-node passes, m >= parallel.MinShardEdges for the edge passes), so the
// parallel fit paths genuinely fan out instead of taking their sequential
// fallbacks.
func fitFixture(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	edges := make([]graph.Edge, 0, 3*n)
	for i := 0; i < 3*n; i++ {
		// Square one endpoint's draw toward low IDs for a skewed degree profile.
		u := int(float64(n) * rng.Float64() * rng.Float64())
		v := rng.Intn(n)
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g := graph.FromEdges(n, 0, edges)
	attrs := make([]graph.AttrVector, n)
	for i := range attrs {
		attrs[i] = graph.AttrVector(rng.Uint64() & 3)
	}
	g = g.WithAttributes(2, attrs)
	if g.NumNodes() < 1<<14 || g.NumEdges() < parallel.MinShardEdges {
		tb.Fatalf("fixture has %d nodes and %d edges, below the sharding thresholds", g.NumNodes(), g.NumEdges())
	}
	return g
}

// marshalOrDie serialises a model canonically so bit-identity can be asserted
// on the exact bytes a registry would store.
func marshalOrDie(t *testing.T, m *FittedModel) []byte {
	t.Helper()
	data, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFitWithParallelMatchesSequential pins the determinism contract of the
// exact fitting pipeline: at every process-default worker count the fitted
// model is byte-identical to the sequential fit.
func TestFitWithParallelMatchesSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	g := fitFixture(t, 1<<14)
	for _, model := range []structural.Model{structural.TriCycLe{}, structural.FCL{}} {
		parallel.SetParallelism(1)
		want := marshalOrDie(t, Fit(g, model))
		for _, workers := range determinismWorkers[1:] {
			parallel.SetParallelism(workers)
			if got := marshalOrDie(t, Fit(g, model)); !bytes.Equal(want, got) {
				t.Errorf("%s: Fit at %d workers differs from sequential fit", model.Name(), workers)
			}
		}
	}
}

// TestFitDPParallelMatchesSequential pins the same contract for the private
// pipeline: the noise draws stay sequential on the rng, so equal seeds give
// byte-identical private models at every worker count.
func TestFitDPParallelMatchesSequential(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	g := fitFixture(t, 1<<14)
	for _, model := range []structural.Model{structural.TriCycLe{}, structural.FCL{}} {
		fit := func(workers int) []byte {
			parallel.SetParallelism(workers)
			m, err := FitDP(context.Background(), rand.New(rand.NewSource(7)), g, Config{Epsilon: 1.0, Model: model})
			if err != nil {
				t.Fatalf("%s: FitDP(%d workers): %v", model.Name(), workers, err)
			}
			return marshalOrDie(t, m)
		}
		want := fit(1)
		for _, workers := range determinismWorkers[1:] {
			if got := fit(workers); !bytes.Equal(want, got) {
				t.Errorf("%s: FitDP at %d workers differs from sequential", model.Name(), workers)
			}
		}
	}
}

// TestFitAutoParallelismMatchesExplicit guards the default's resolution: the
// built-in default (SetParallelism(0), GOMAXPROCS workers) must produce the
// same model as the sequential fit.
func TestFitAutoParallelismMatchesExplicit(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(0))
	g := fitFixture(t, 1<<14)
	auto := marshalOrDie(t, Fit(g, structural.TriCycLe{}))
	parallel.SetParallelism(1)
	seq := marshalOrDie(t, Fit(g, structural.TriCycLe{}))
	if !bytes.Equal(auto, seq) {
		t.Error("auto-parallel fit differs from sequential fit")
	}
}
