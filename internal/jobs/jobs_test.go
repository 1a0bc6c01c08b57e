package jobs

import (
	"context"
	"testing"
	"time"

	"agmdp/internal/core"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/parallel"
)

// fixtureModel fits a small non-private model for job tests.
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

// newTestManager builds a manager over a 2-worker engine and an in-memory
// graph store, torn down with the test.
func newTestManager(t *testing.T) (*Manager, *graphstore.Store) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, Seed: 1})
	t.Cleanup(eng.Close)
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Engine: eng, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, store
}

// wait blocks until the job finishes, failing the test on timeout.
func wait(t *testing.T, m *Manager, id string) Info {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if !m.Wait(ctx, id) {
		t.Fatalf("job %s did not finish in time", id)
	}
	info, _, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return info
}

func TestJobRunsToCompletion(t *testing.T) {
	m, _ := newTestManager(t)
	model := fixtureModel(t)
	id, err := m.Submit(Spec{Draws: Draws{Model: model, ModelID: "m1", Count: 5, Seed: 100, Iterations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	info := wait(t, m, id)
	if info.Status != StatusDone || info.Completed != 5 || info.Failed != 0 {
		t.Fatalf("info = %+v", info)
	}
	if info.StartedAt.IsZero() || info.FinishedAt.IsZero() {
		t.Fatalf("missing timestamps: %+v", info)
	}
	_, results, _ := m.Get(id)
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Index != i || r.Error != "" || r.Nodes == 0 || r.Edges == 0 {
			t.Fatalf("result %d = %+v", i, r)
		}
		// Seeded jobs use base seed + index per sample.
		if r.Seed != 100+int64(i) {
			t.Fatalf("result %d seed = %d, want %d", i, r.Seed, 100+int64(i))
		}
	}
}

func TestJobSeededBatchIsDeterministic(t *testing.T) {
	m, _ := newTestManager(t)
	model := fixtureModel(t)
	run := func() []SampleResult {
		id, err := m.Submit(Spec{Draws: Draws{Model: model, Count: 4, Seed: 7, Iterations: 1, Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, m, id)
		_, results, _ := m.Get(id)
		return results
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical jobs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestUnseededJobReportsDrawnSeeds(t *testing.T) {
	m, _ := newTestManager(t)
	id, err := m.Submit(Spec{Draws: Draws{Model: fixtureModel(t), Count: 3, Iterations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, id)
	_, results, _ := m.Get(id)
	for i, r := range results {
		if r.Seed == 0 {
			t.Fatalf("sample %d did not report its drawn seed", i)
		}
	}
}

func TestJobStoresGraphs(t *testing.T) {
	m, store := newTestManager(t)
	id, err := m.Submit(Spec{Draws: Draws{Model: fixtureModel(t), Count: 3, Seed: 5, Iterations: 1}, Store: true})
	if err != nil {
		t.Fatal(err)
	}
	info := wait(t, m, id)
	if info.Stored != 3 {
		t.Fatalf("stored %d graphs, want 3", info.Stored)
	}
	_, results, _ := m.Get(id)
	for i, r := range results {
		if r.GraphID == "" {
			t.Fatalf("sample %d has no graph ID", i)
		}
		g, ok := store.Get(r.GraphID)
		if !ok {
			t.Fatalf("sample %d graph %s not in store", i, r.GraphID)
		}
		if g.NumNodes() != r.Nodes || g.NumEdges() != r.Edges {
			t.Fatalf("stored graph disagrees with result summary %+v", r)
		}
	}
}

func TestStoreWithoutStoreRejected(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Seed: 1})
	t.Cleanup(eng.Close)
	m, err := New(Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, err := m.Submit(Spec{Draws: Draws{Model: fixtureModel(t), Count: 1}, Store: true}); err == nil {
		t.Fatal("Submit accepted Store without a graph store")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, _ := newTestManager(t)
	model := fixtureModel(t)
	for _, c := range []struct {
		name string
		d    Draws
	}{
		{"nil model", Draws{Count: 1}},
		{"count 0", Draws{Model: model, Count: 0}},
		// A negative base seed whose per-sample range [seed, seed+count)
		// would cross 0 silently degrades one sample to an unseeded draw.
		{"seed range crossing 0", Draws{Model: model, Count: 8, Seed: -3}},
		{"unknown model kind", Draws{Model: model, Count: 1, ModelKind: "gnp"}},
		{"negative parallelism", Draws{Model: model, Count: 1, Parallelism: -1}},
		{"parallelism over bound", Draws{Model: model, Count: 1, Parallelism: parallel.MaxWorkers + 1}},
		{"negative iterations", Draws{Model: model, Count: 1, Iterations: -1}},
		{"iterations over bound", Draws{Model: model, Count: 1, Iterations: core.MaxSampleIterations + 1}},
	} {
		if _, err := m.Submit(Spec{Draws: c.d}); err == nil {
			t.Errorf("Submit accepted %s", c.name)
		}
	}
	// A fully negative range is fine.
	if _, err := m.Submit(Spec{Draws: Draws{Model: model, Count: 3, Seed: -3, Iterations: 1}}); err != nil {
		t.Fatalf("Submit rejected a valid negative seed: %v", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m, _ := newTestManager(t)
	// A large seeded batch so cancellation lands mid-flight.
	id, err := m.Submit(Spec{Draws: Draws{Model: fixtureModel(t), Count: 500, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(id) {
		t.Fatal("Cancel known job = false")
	}
	info := wait(t, m, id)
	if info.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", info.Status)
	}
	if info.Completed == 500 {
		t.Fatal("cancelled job completed every sample")
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m, _ := newTestManager(t)
	if m.Cancel("job-999999") {
		t.Fatal("Cancel unknown job = true")
	}
}

func TestCancelFinishedJobRemovesIt(t *testing.T) {
	m, _ := newTestManager(t)
	id, err := m.Submit(Spec{Draws: Draws{Model: fixtureModel(t), Count: 1, Seed: 3, Iterations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, id)
	if !m.Cancel(id) {
		t.Fatal("Cancel finished job = false")
	}
	if _, _, ok := m.Get(id); ok {
		t.Fatal("finished job survived Cancel")
	}
}

func TestFinishedJobRetentionBound(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2, Seed: 1})
	t.Cleanup(eng.Close)
	m, err := New(Options{Engine: eng, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	model := fixtureModel(t)
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := m.Submit(Spec{Draws: Draws{Model: model, Count: 1, Seed: int64(i + 1), Iterations: 1}})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, m, id)
		ids = append(ids, id)
	}
	if _, _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest finished job survived the retention bound")
	}
	if _, _, ok := m.Get(ids[3]); !ok {
		t.Fatal("newest finished job was dropped")
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("List has %d jobs, want 2", got)
	}
}

func TestListOrder(t *testing.T) {
	m, _ := newTestManager(t)
	model := fixtureModel(t)
	id1, _ := m.Submit(Spec{Draws: Draws{Model: model, Count: 1, Seed: 1, Iterations: 1}})
	id2, _ := m.Submit(Spec{Draws: Draws{Model: model, Count: 1, Seed: 2, Iterations: 1}})
	wait(t, m, id1)
	wait(t, m, id2)
	list := m.List()
	if len(list) != 2 || list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("List = %+v", list)
	}
}

func TestCloseRejectsSubmissions(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Seed: 1})
	t.Cleanup(eng.Close)
	m, err := New(Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(Spec{Draws: Draws{Model: fixtureModel(t), Count: 1}}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}
