package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"agmdp/internal/core"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/obs"
	"agmdp/internal/registry"
)

// fixtureGraph builds a small attributed input graph for fit jobs.
func fixtureGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := dp.NewRand(7)
	b := graph.NewBuilder(80, 2)
	for i := 0; i < 300; i++ {
		b.AddEdge(rng.Intn(80), rng.Intn(80))
	}
	for i := 0; i < 80; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(4)))
	}
	return b.Finalize()
}

// newFitManager builds a manager wired to a registry (and optionally a
// persistence directory), torn down with the test.
func newFitManager(t *testing.T, dir string) (*Manager, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1, Acceptance: reg})
	t.Cleanup(eng.Close)
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Engine: eng, Store: store, Models: reg, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, reg
}

func TestFitJobRegistersModel(t *testing.T) {
	m, reg := newFitManager(t, "")
	g := fixtureGraph(t)
	id, err := m.SubmitFit(FitSpec{Graph: g, Epsilon: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	info := wait(t, m, id)
	if info.Status != StatusDone || info.Kind != KindFit || info.Completed != 1 {
		t.Fatalf("fit job ended %+v", info)
	}
	if info.Fit == nil || info.Fit.ModelID == "" {
		t.Fatalf("fit job carries no model ID: %+v", info.Fit)
	}
	if info.ModelID != info.Fit.ModelID {
		t.Fatalf("Info.ModelID %q not mirrored from fit result %q", info.ModelID, info.Fit.ModelID)
	}
	if _, ok := reg.Model(info.Fit.ModelID); !ok {
		t.Fatalf("model %s not in the registry", info.Fit.ModelID)
	}
	if _, ok := reg.Acceptance(info.Fit.ModelID); !ok {
		t.Fatal("acceptance table was not warmed")
	}
}

// TestFitJobMatchesSynchronousFit pins the acceptance criterion: the async
// fit registers a model whose content address equals the synchronous fit at
// the same seed.
func TestFitJobMatchesSynchronousFit(t *testing.T) {
	g := fixtureGraph(t)
	sync, err := core.FitDP(context.Background(), dp.NewRand(11), g, core.Config{Epsilon: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := core.ModelID(sync)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := newFitManager(t, "")
	id, err := m.SubmitFit(FitSpec{Graph: g, Epsilon: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	info := wait(t, m, id)
	if info.Status != StatusDone {
		t.Fatalf("fit job ended %v (%+v)", info.Status, info.Fit)
	}
	if info.Fit.ModelID != wantID {
		t.Errorf("async fit registered %s, synchronous fit is %s", info.Fit.ModelID, wantID)
	}
}

func TestFitJobValidation(t *testing.T) {
	m, _ := newFitManager(t, "")
	g := fixtureGraph(t)
	if _, err := m.SubmitFit(FitSpec{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := m.SubmitFit(FitSpec{Graph: g, Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := m.SubmitFit(FitSpec{Graph: g, ModelKind: "nope"}); err == nil {
		t.Error("unknown model kind accepted")
	}

	// A manager without a model store rejects fit jobs outright.
	eng := engine.New(engine.Config{Workers: 1})
	t.Cleanup(eng.Close)
	bare, err := New(Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if _, err := bare.SubmitFit(FitSpec{Graph: g}); err == nil {
		t.Error("fit job accepted without a model store")
	}
}

func TestFitJobUnsupportedPrivateModelFails(t *testing.T) {
	m, _ := newFitManager(t, "")
	// TCL has no differentially private fitting procedure, so a private TCL
	// fit must fail the job (not the submission — the error surfaces in the
	// job result, like any other runtime failure).
	id, err := m.SubmitFit(FitSpec{Graph: fixtureGraph(t), Epsilon: 1.0, ModelKind: "tcl"})
	if err != nil {
		t.Fatal(err)
	}
	info := wait(t, m, id)
	if info.Status != StatusFailed || info.Failed != 1 {
		t.Fatalf("private TCL fit ended %+v", info)
	}
	if info.Fit == nil || info.Fit.Error == "" {
		t.Fatalf("failed fit carries no error: %+v", info.Fit)
	}
}

func TestFinishedJobsPersistAcrossManagers(t *testing.T) {
	dir := t.TempDir()
	g := fixtureGraph(t)

	m1, _ := newFitManager(t, dir)
	fitID, err := m1.SubmitFit(FitSpec{Graph: g, Epsilon: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	model := fixtureModel(t)
	sampleID, err := m1.Submit(Spec{Draws: Draws{Model: model, ModelID: "m1", Count: 3, Seed: 50, Iterations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fitInfo := wait(t, m1, fitID)
	sampleInfo := wait(t, m1, sampleID)
	if len(fitInfo.Stages) == 0 {
		t.Fatalf("finished fit job has no stage timings: %+v", fitInfo)
	}
	if len(sampleInfo.Stages) == 0 {
		t.Fatalf("finished sample job has no stage timings: %+v", sampleInfo)
	}
	_, wantResults, _ := m1.Get(sampleID)
	m1.Close()

	// A fresh manager over the same directory resolves both jobs with
	// identical metadata, results and stage timings.
	m2, _ := newFitManager(t, dir)
	gotFit, _, ok := m2.Get(fitID)
	if !ok {
		t.Fatalf("fit job %s did not survive the restart", fitID)
	}
	if gotFit.Status != fitInfo.Status || gotFit.Kind != KindFit || gotFit.Fit == nil || gotFit.Fit.ModelID != fitInfo.Fit.ModelID {
		t.Fatalf("restored fit job %+v, want %+v", gotFit, fitInfo)
	}
	if !reflect.DeepEqual(gotFit.Stages, fitInfo.Stages) {
		t.Fatalf("fit stages changed across restart: %+v vs %+v", gotFit.Stages, fitInfo.Stages)
	}
	gotSample, gotResults, ok := m2.Get(sampleID)
	if !ok {
		t.Fatalf("sample job %s did not survive the restart", sampleID)
	}
	if gotSample.Completed != sampleInfo.Completed || gotSample.Status != sampleInfo.Status {
		t.Fatalf("restored sample job %+v, want %+v", gotSample, sampleInfo)
	}
	if !reflect.DeepEqual(gotSample.Stages, sampleInfo.Stages) {
		t.Fatalf("sample stages changed across restart: %+v vs %+v", gotSample.Stages, sampleInfo.Stages)
	}
	if len(gotResults) != len(wantResults) {
		t.Fatalf("restored %d results, want %d", len(gotResults), len(wantResults))
	}
	for i := range gotResults {
		if gotResults[i] != wantResults[i] {
			t.Fatalf("result %d changed across restart: %+v vs %+v", i, gotResults[i], wantResults[i])
		}
	}
	if len(m2.Warnings()) != 0 {
		t.Fatalf("unexpected load warnings: %v", m2.Warnings())
	}

	// New submissions continue past the restored sequence instead of
	// colliding with reloaded IDs.
	newID, err := m2.Submit(Spec{Draws: Draws{Model: model, ModelID: "m1", Count: 1, Seed: 9, Iterations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if newID == fitID || newID == sampleID {
		t.Fatalf("new job reused a restored ID %s", newID)
	}
	wait(t, m2, newID)
	m2.Close()
}

// TestCrashedJobIDNeverReissued simulates a hard crash: a job's ID was
// allocated but no terminal record was written (the process died mid-run).
// The sequence high-water mark persisted at submission must keep a fresh
// manager from handing the dead job's ID to a new submission — a polling
// client must get a 404-equivalent, never someone else's job.
func TestCrashedJobIDNeverReissued(t *testing.T) {
	dir := t.TempDir()
	m1, _ := newFitManager(t, dir)
	id1, err := m1.SubmitFit(FitSpec{Graph: fixtureGraph(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m1, id1)
	// Simulate the crash: delete the terminal record but keep the seq file,
	// exactly the on-disk state a SIGKILL mid-run leaves behind.
	if err := os.Remove(filepath.Join(dir, id1+".json")); err != nil {
		t.Fatal(err)
	}

	m2, _ := newFitManager(t, dir)
	if _, _, ok := m2.Get(id1); ok {
		t.Fatalf("crashed job %s resurrected without a record", id1)
	}
	id2, err := m2.SubmitFit(FitSpec{Graph: fixtureGraph(t), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatalf("crashed job ID %s was reissued to a new submission", id1)
	}
	wait(t, m2, id2)
}

func TestCancelRemovesPersistedRecord(t *testing.T) {
	dir := t.TempDir()
	m, _ := newFitManager(t, dir)
	id, err := m.SubmitFit(FitSpec{Graph: fixtureGraph(t), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, id)
	path := filepath.Join(dir, id+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("finished job was not persisted: %v", err)
	}
	// Cancelling a finished job drops it — from memory and from disk.
	if !m.Cancel(id) {
		t.Fatal("cancel of finished job reported unknown")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("persisted record survived deletion: %v", err)
	}
}

func TestLoadSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	m1, _ := newFitManager(t, dir)
	id, err := m1.SubmitFit(FitSpec{Graph: fixtureGraph(t), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m1, id)
	m1.Close()

	// One corrupt file and one mis-named record must not take the good job
	// out of service.
	if err := os.WriteFile(filepath.Join(dir, "job-009999.json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Clone(good)
	if err := os.WriteFile(filepath.Join(dir, "job-008888.json"), renamed, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, _ := newFitManager(t, dir)
	if _, _, ok := m2.Get(id); !ok {
		t.Fatalf("good job %s lost next to corrupt records", id)
	}
	warnings := m2.Warnings()
	if len(warnings) != 2 {
		t.Fatalf("want 2 load warnings, got %v", warnings)
	}
	for _, w := range warnings {
		if !strings.Contains(w, "job-009999") && !strings.Contains(w, "job-008888") {
			t.Fatalf("warning does not name the bad file: %q", w)
		}
	}
}

func TestRetentionTrimsPersistedRecords(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, Seed: 1})
	t.Cleanup(eng.Close)
	m, err := New(Options{Engine: eng, Models: reg, Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	g := fixtureGraph(t)
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := m.SubmitFit(FitSpec{Graph: g, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, m, id)
		ids = append(ids, id)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("retention left %d persisted records, want 2: %v", len(files), files)
	}
	// The survivors are the two newest.
	for _, id := range ids[2:] {
		if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
			t.Errorf("newest job %s missing from disk: %v", id, err)
		}
	}
}

// TestShutdownCancelsAndPersistsRunningJob simulates the mid-run kill: Close
// cancels the in-flight job, which reaches a terminal cancelled state and
// therefore persists, so a restarted manager still resolves the ID.
func TestShutdownCancelsAndPersistsRunningJob(t *testing.T) {
	dir := t.TempDir()
	m1, _ := newFitManager(t, dir)
	model := fixtureModel(t)
	// A long batch that cannot finish before Close cancels it.
	id, err := m1.Submit(Spec{Draws: Draws{Model: model, ModelID: "m1", Count: 500, Seed: 100}})
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, _ := newFitManager(t, dir)
	info, _, ok := m2.Get(id)
	if !ok {
		t.Fatalf("job %s killed mid-run left no record", id)
	}
	if !info.Status.Finished() {
		t.Fatalf("restored job in non-terminal state %q", info.Status)
	}
	if info.Status == StatusDone && info.Completed != info.Count {
		t.Fatalf("done job with %d/%d samples", info.Completed, info.Count)
	}
}

// TestJobStageTimings pins the stage vocabulary of both job kinds: a warmed
// private fit reports the core pipeline's stages plus the manager's own
// table_warm and store spans, and a storing sample job reports
// generate/analyze/store. Stage durations are wall-clock and so not asserted
// beyond being non-negative.
func TestJobStageTimings(t *testing.T) {
	m, _ := newFitManager(t, "")
	g := fixtureGraph(t)

	fitID, err := m.SubmitFit(FitSpec{Graph: g, Epsilon: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fitInfo := wait(t, m, fitID)
	wantFit := []string{"attrs", "correlations", "degrees", "triangles", "store", "table_warm"}
	assertStages(t, "fit", fitInfo.Stages, wantFit)

	model := fixtureModel(t)
	sampleID, err := m.Submit(Spec{Draws: Draws{Model: model, ModelID: "m1", Count: 2, Seed: 40, Iterations: 1}, Store: true})
	if err != nil {
		t.Fatal(err)
	}
	sampleInfo := wait(t, m, sampleID)
	assertStages(t, "sample", sampleInfo.Stages, []string{"generate", "store", "analyze"})
}

// assertStages checks that the recorded stages carry exactly the expected
// names (in any order — fan-out makes inter-stage order scheduling-dependent)
// with non-negative durations.
func assertStages(t *testing.T, kind string, stages []obs.Stage, want []string) {
	t.Helper()
	got := make(map[string]float64, len(stages))
	for _, s := range stages {
		if s.Seconds < 0 {
			t.Errorf("%s stage %s has negative duration %v", kind, s.Name, s.Seconds)
		}
		if _, dup := got[s.Name]; dup {
			t.Errorf("%s stage %s recorded twice (repeats must accumulate)", kind, s.Name)
		}
		got[s.Name] = s.Seconds
	}
	if len(got) != len(want) {
		t.Fatalf("%s job stages = %+v, want names %v", kind, stages, want)
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s job missing stage %q (got %+v)", kind, name, stages)
		}
	}
}

// TestSubmitRefusedWhenIDMarkFails: a job ID is issued only once its
// high-water mark is durable. With <Dir>/seq a directory the mark's rename
// fails, and every submit path refuses its job and registers nothing.
func TestSubmitRefusedWhenIDMarkFails(t *testing.T) {
	dir := t.TempDir()
	m, _ := newFitManager(t, dir)
	seq := filepath.Join(dir, seqFile)
	if err := os.Mkdir(seq, 0o755); err != nil {
		t.Fatal(err)
	}
	g, model := fixtureGraph(t), fixtureModel(t)
	for _, submit := range []func() (string, error){
		func() (string, error) {
			return m.Submit(Spec{Draws: Draws{Model: model, ModelID: "m1", Count: 1, Seed: 1}})
		},
		func() (string, error) { return m.SubmitFit(FitSpec{Graph: g, Seed: 1}) },
		func() (string, error) { return m.SubmitEvaluate(EvalSpec{Source: g, Synthetic: g}) },
	} {
		if id, err := submit(); err == nil {
			t.Errorf("submit without a durable ID mark issued %s", id)
		}
	}
	if listed := m.List(); len(listed) != 0 {
		t.Fatalf("refused submits registered %v", listed)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 || names[0] != seq {
		t.Fatalf("refused submits left %v", names)
	}

	// Once the mark can be written again, submissions resume.
	if err := os.Remove(seq); err != nil {
		t.Fatal(err)
	}
	id, err := m.SubmitFit(FitSpec{Graph: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info := wait(t, m, id); info.Status != StatusDone {
		t.Fatalf("fit after the mark recovered ended %+v", info)
	}
}
