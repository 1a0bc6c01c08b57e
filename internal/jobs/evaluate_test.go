package jobs

import (
	"context"
	"math"
	"testing"

	"agmdp/internal/engine"
	"agmdp/internal/experiments"
	"agmdp/internal/graphstore"
)

// submitEval submits an evaluate spec and fails the test on error.
func submitEval(t *testing.T, m *Manager, spec EvalSpec) string {
	t.Helper()
	id, err := m.SubmitEvaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestEvaluatePairMode(t *testing.T) {
	m, _ := newTestManager(t)
	orig := fixtureGraph(t)
	id := submitEval(t, m, EvalSpec{
		Source: orig, SourceID: "src",
		Synthetic: orig, SyntheticID: "src",
	})
	info := wait(t, m, id)
	if info.Status != StatusDone || info.Kind != KindEvaluate || info.Completed != 1 || info.Failed != 0 {
		t.Fatalf("info = %+v", info)
	}
	ev := info.Eval
	if ev == nil || ev.SourceGraphID != "src" || ev.SyntheticGraphID != "src" || len(ev.Samples) != 1 {
		t.Fatalf("eval = %+v", ev)
	}
	s := ev.Samples[0]
	if s.Error != "" || s.Metrics == nil || s.Nodes != orig.NumNodes() || s.Edges != orig.NumEdges() {
		t.Fatalf("sample = %+v", s)
	}
	// A graph compared to itself has zero utility error on every column.
	if *s.Metrics != *ev.Average || s.Metrics.MREEdges != 0 || s.Metrics.KSDegree != 0 || s.Metrics.MRETriangles != 0 {
		t.Fatalf("self-evaluation metrics non-zero: %+v", s.Metrics)
	}
}

func TestEvaluateModelMode(t *testing.T) {
	m, _ := newTestManager(t)
	orig := fixtureGraph(t)
	id := submitEval(t, m, EvalSpec{
		Source:   orig,
		SourceID: "src",
		Draws:    Draws{Model: fixtureModel(t), ModelID: "m1", Count: 3, Seed: 50, Iterations: 1},
	})
	info := wait(t, m, id)
	if info.Status != StatusDone || info.Completed != 3 || info.Failed != 0 {
		t.Fatalf("info = %+v", info)
	}
	ev := info.Eval
	if ev.ModelID != "m1" || ev.SyntheticGraphID != "" || len(ev.Samples) != 3 || ev.Average == nil {
		t.Fatalf("eval = %+v", ev)
	}
	sum := 0.0
	for i, s := range ev.Samples {
		if s.Index != i || s.Error != "" || s.Metrics == nil || s.Nodes == 0 {
			t.Fatalf("sample %d = %+v", i, s)
		}
		if s.Seed != 50+int64(i) {
			t.Fatalf("sample %d seed = %d, want %d", i, s.Seed, 50+int64(i))
		}
		sum += s.Metrics.MREEdges
	}
	if got := ev.Average.MREEdges; math.Abs(got-sum/3) > 1e-12 {
		t.Fatalf("average MREEdges = %v, want %v", got, sum/3)
	}
}

func TestEvaluateSeededIsDeterministic(t *testing.T) {
	m, _ := newTestManager(t)
	orig := fixtureGraph(t)
	model := fixtureModel(t)
	run := func() []EvalSample {
		id := submitEval(t, m, EvalSpec{
			Source: orig,
			Draws:  Draws{Model: model, ModelID: "m1", Count: 2, Seed: 9, Iterations: 1, Parallelism: 1},
		})
		info := wait(t, m, id)
		return info.Eval.Samples
	}
	a, b := run(), run()
	for i := range a {
		am, bm := *a[i].Metrics, *b[i].Metrics
		a[i].Metrics, b[i].Metrics = nil, nil
		if a[i] != b[i] || am != bm {
			t.Fatalf("sample %d differs across identical evaluations", i)
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	m, _ := newTestManager(t)
	orig := fixtureGraph(t)
	model := fixtureModel(t)
	cases := []struct {
		name string
		spec EvalSpec
	}{
		{"nil source", EvalSpec{Synthetic: orig}},
		{"neither mode", EvalSpec{Source: orig}},
		{"both modes", EvalSpec{Source: orig, Synthetic: orig, Draws: Draws{Model: model}}},
		{"zero count", EvalSpec{Source: orig, Draws: Draws{Model: model, Count: 0}}},
		{"seed crosses zero", EvalSpec{Source: orig, Draws: Draws{Model: model, Count: 4, Seed: -2}}},
	}
	for _, tc := range cases {
		if _, err := m.SubmitEvaluate(tc.spec); err == nil {
			t.Errorf("%s: submit succeeded, want error", tc.name)
		}
	}
	// Pair mode ignores Count and always evaluates exactly one sample.
	id := submitEval(t, m, EvalSpec{Source: orig, Synthetic: orig, Draws: Draws{Count: 7}})
	if info := wait(t, m, id); info.Count != 1 || len(info.Eval.Samples) != 1 {
		t.Fatalf("pair-mode info = %+v", info)
	}
}

func TestEvaluateCancel(t *testing.T) {
	m, _ := newTestManager(t)
	orig := fixtureGraph(t)
	id := submitEval(t, m, EvalSpec{
		Source: orig,
		Draws:  Draws{Model: fixtureModel(t), ModelID: "m1", Count: 500, Iterations: 2},
	})
	if !m.Cancel(id) {
		t.Fatal("Cancel returned false")
	}
	info := wait(t, m, id)
	if info.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", info.Status)
	}
	if len(info.Eval.Samples) != info.Completed+info.Failed {
		t.Fatalf("samples %d vs completed %d + failed %d", len(info.Eval.Samples), info.Completed, info.Failed)
	}
}

func TestEvaluatePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m1, _ := newEvalManager(t, dir)
	orig := fixtureGraph(t)
	id := submitEval(t, m1, EvalSpec{
		Source:   orig,
		SourceID: "src",
		Draws:    Draws{Model: fixtureModel(t), ModelID: "m1", Count: 2, Seed: 30, Iterations: 1},
	})
	want := wait(t, m1, id)
	m1.Close()

	m2, _ := newEvalManager(t, dir)
	got, _, ok := m2.Get(id)
	if !ok {
		t.Fatalf("job %s not reloaded", id)
	}
	if got.Status != want.Status || got.Completed != want.Completed {
		t.Fatalf("reloaded info = %+v, want %+v", got, want)
	}
	if got.Eval == nil || len(got.Eval.Samples) != len(want.Eval.Samples) {
		t.Fatalf("reloaded eval = %+v", got.Eval)
	}
	for i := range want.Eval.Samples {
		ws, gs := want.Eval.Samples[i], got.Eval.Samples[i]
		wm, gm := ws.Metrics, gs.Metrics
		ws.Metrics, gs.Metrics = nil, nil
		if ws != gs || *wm != *gm {
			t.Fatalf("reloaded sample %d = %+v, want %+v", i, got.Eval.Samples[i], want.Eval.Samples[i])
		}
	}
	if *got.Eval.Average != *want.Eval.Average {
		t.Fatalf("reloaded average = %+v, want %+v", got.Eval.Average, want.Eval.Average)
	}
}

// newEvalManager builds a manager with a persistence directory.
func newEvalManager(t *testing.T, dir string) (*Manager, *graphstore.Store) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, Seed: 1})
	t.Cleanup(eng.Close)
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Engine: eng, Store: store, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, store
}

// TestEvaluateModelModeMatchesCompare: a job measures its source once, and
// scores every sample bit for bit as measuring both graphs afresh does, with
// each sample redrawn at its seed.
func TestEvaluateModelModeMatchesCompare(t *testing.T) {
	m, _ := newTestManager(t)
	orig, model := fixtureGraph(t), fixtureModel(t)
	info := wait(t, m, submitEval(t, m, EvalSpec{
		Source: orig,
		Draws:  Draws{Model: model, ModelID: "m1", Count: 3, Seed: 20, Iterations: 1},
	}))
	if info.Status != StatusDone || len(info.Eval.Samples) != 3 {
		t.Fatalf("info = %+v", info)
	}
	for i, s := range info.Eval.Samples {
		g, _, err := m.opts.Engine.SampleSeeded(context.Background(), engine.Request{
			Model: model, Seed: s.Seed, Iterations: 1, CacheKey: "m1",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := experiments.Measure(orig).Compare(experiments.Measure(g))
		if s.Metrics == nil || *s.Metrics != want {
			t.Errorf("sample %d metrics %+v, want %+v", i, s.Metrics, want)
		}
		if s.Nodes != g.NumNodes() || s.Edges != g.NumEdges() || s.Triangles != g.Triangles() {
			t.Errorf("sample %d = %+v, want %d nodes, %d edges, %d triangles",
				i, s, g.NumNodes(), g.NumEdges(), g.Triangles())
		}
	}
}
