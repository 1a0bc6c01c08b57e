package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"agmdp/internal/core"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// fixtureModel fits a small non-private model for sampling tests.
func fixtureModel(t testing.TB) *core.FittedModel {
	t.Helper()
	rng := dp.NewRand(42)
	b := graph.NewBuilder(60, 2)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Intn(60), rng.Intn(60))
	}
	for i := 0; i < 60; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(4)))
	}
	return core.Fit(b.Finalize(), nil)
}

func TestSampleSeededDeterministicAcrossWorkerCounts(t *testing.T) {
	m := fixtureModel(t)
	sample := func(workers int) *graph.Graph {
		e := New(Config{Workers: workers, Seed: 1})
		defer e.Close()
		g, err := e.Sample(context.Background(), Request{Model: m, Seed: 99, Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// An explicitly seeded job is deterministic no matter how many pool
	// workers exist (intra-job Parallelism is what changes the draw).
	g1, g4 := sample(1), sample(4)
	if !g1.Equal(g4) {
		t.Fatal("seeded job varies with pool size")
	}
	if g1.NumEdges() == 0 {
		t.Fatal("sampled graph has no edges")
	}
}

func TestSampleSeededDeterministicWithParallelism(t *testing.T) {
	m := fixtureModel(t)
	sample := func() *graph.Graph {
		e := New(Config{Workers: 2, Parallelism: 4, Seed: 1})
		defer e.Close()
		g, err := e.Sample(context.Background(), Request{Model: m, Seed: 7, Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if !sample().Equal(sample()) {
		t.Fatal("same seed + same parallelism gave different graphs")
	}
}

func TestConcurrentJobsAllComplete(t *testing.T) {
	m := fixtureModel(t)
	e := New(Config{Workers: 4, Seed: 1})
	defer e.Close()

	const jobs = 16
	results := make([]*graph.Graph, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := e.Sample(context.Background(), Request{Model: m, Seed: int64(i) + 1, Iterations: 1})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = g
		}(i)
	}
	wg.Wait()
	for i, g := range results {
		if g == nil || g.NumNodes() != m.N {
			t.Fatalf("job %d: bad result", i)
		}
	}
	if got := e.Stats().Completed; got != jobs {
		t.Fatalf("Completed = %d, want %d", got, jobs)
	}
}

func TestUnseededSamplesDrawFromOneStream(t *testing.T) {
	m := fixtureModel(t)
	e := New(Config{Workers: 2, Seed: 5})
	defer e.Close()
	g1, seed1, err := e.SampleSeeded(context.Background(), Request{Model: m, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Sample(context.Background(), Request{Model: m, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive unseeded samples advance the engine's stream: the two
	// graphs should differ (equality would mean the stream is stuck).
	if g1.Equal(g2) {
		t.Fatal("seed stream did not advance between samples")
	}
	// A fresh engine with the same Seed replays the same stream, whatever
	// its slot count.
	e2 := New(Config{Workers: 1, Seed: 5})
	defer e2.Close()
	h1, err := e2.Sample(context.Background(), Request{Model: m, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(h1) {
		t.Fatal("same Seed did not replay the seed stream")
	}
	// The echoed seed reproduces the draw as an explicit seed.
	replay, err := e.Sample(context.Background(), Request{Model: m, Seed: seed1, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(replay) {
		t.Fatalf("echoed seed %d does not replay the unseeded sample", seed1)
	}
}

func TestModelKindOverride(t *testing.T) {
	m := fixtureModel(t) // fitted for TriCycLe
	e := New(Config{Workers: 1, Seed: 1})
	defer e.Close()
	if _, err := e.Sample(context.Background(), Request{Model: m, Seed: 3, ModelKind: "fcl"}); err != nil {
		t.Fatalf("fcl override: %v", err)
	}
	if _, err := e.Sample(context.Background(), Request{Model: m, Seed: 3, ModelKind: "nope"}); err == nil {
		t.Fatal("unknown model kind accepted")
	}
}

func TestSampleAfterCloseFails(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	e.Close() // idempotent
	if _, err := e.Sample(context.Background(), Request{Model: fixtureModel(t), Seed: 1}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSampleNilModel(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	if _, err := e.Sample(context.Background(), Request{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestSampleRespectsContext(t *testing.T) {
	m := fixtureModel(t)
	e := New(Config{Workers: 1, Seed: 1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.Sample(ctx, Request{Model: m, Seed: 1}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled sample blocked")
	}
}

func TestStatsSnapshot(t *testing.T) {
	e := New(Config{Workers: 3, Parallelism: 2})
	defer e.Close()
	s := e.Stats()
	if s.Workers != 3 || s.QueueDepth != 0 || s.Parallelism != 2 {
		t.Fatalf("Stats = %+v", s)
	}
}
