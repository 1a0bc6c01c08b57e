package registry

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"agmdp/internal/core"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// fixtureModel fits a small non-private model whose parameters vary with salt.
func fixtureModel(t *testing.T, salt int64) *core.FittedModel {
	t.Helper()
	rng := dp.NewRand(100 + salt)
	b := graph.NewBuilder(30, 2)
	for i := 0; i < 80; i++ {
		b.AddEdge(rng.Intn(30), rng.Intn(30))
	}
	for i := 0; i < 30; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(4)))
	}
	return core.Fit(b.Finalize(), nil)
}

func TestPutGetListEvict(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := fixtureModel(t, 1)
	id, err := r.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}

	back, ok := r.Get(id)
	if !ok {
		t.Fatal("stored model not found")
	}
	if back.N != m.N || back.ModelName != m.ModelName {
		t.Fatal("retrieved model differs")
	}
	// Mutating the returned copy must not corrupt the registry.
	back.Structural.Degrees[0] = 999
	again, _ := r.Get(id)
	if again.Structural.Degrees[0] == 999 {
		t.Fatal("registry state mutated through a Get copy")
	}

	list := r.List()
	if len(list) != 1 || list[0].ID != id || list[0].N != m.N {
		t.Fatalf("List = %+v", list)
	}
	if info, ok := r.Stat(id); !ok || info.ID != id {
		t.Fatalf("Stat = %+v, %v", info, ok)
	}

	if !r.Evict(id) {
		t.Fatal("Evict reported missing")
	}
	if r.Evict(id) {
		t.Fatal("double evict succeeded")
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("model survived eviction")
	}
}

func TestPutDeduplicatesByContent(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := r.Put(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.Put(fixtureModel(t, 1)) // same parameters, separate value
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("equal models got distinct IDs %s and %s", id1, id2)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate put, want 1", r.Len())
	}
}

func TestBoundedEviction(t *testing.T) {
	r, err := Open(Options{MaxModels: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := int64(0); i < 3; i++ {
		id, err := r.Put(fixtureModel(t, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.Get(ids[0]); ok {
		t.Fatal("oldest model not evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("recent model %s evicted", id)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := fixtureModel(t, 7)
	id, err := r1.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
		t.Fatalf("persisted file missing: %v", err)
	}

	// A fresh registry over the same directory sees the model, and the loaded
	// copy samples identically to the original at equal seeds.
	r2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	back, ok := r2.Get(id)
	if !ok {
		t.Fatal("model not reloaded from disk")
	}
	g1, err := core.Sample(dp.NewRand(5), m, core.SampleOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := core.Sample(dp.NewRand(5), back, core.SampleOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatal("reloaded model samples a different graph at the same seed")
	}

	// Eviction removes the file too.
	r2.Evict(id)
	if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
		t.Fatalf("evicted model still on disk: %v", err)
	}
}

func TestOpenEnforcesBoundOnLoadedStore(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if _, err := r1.Put(fixtureModel(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := Open(Options{Dir: dir, MaxModels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("Len = %d after bounded reload of 4 models, want 2", r2.Len())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("%d files on disk after bounded reload, want 2", len(files))
	}
}

func TestOpenSkipsTamperedStoreFiles(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	goodID, err := r.Put(fixtureModel(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	badID, err := r.Put(fixtureModel(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, badID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A leading space keeps the JSON valid but changes the bytes, so the
	// content no longer hashes to the file name. A stray non-model file
	// rides along. Neither may be served, and neither may take the good
	// model down with it.
	if err := os.WriteFile(path, append([]byte(" "), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open failed instead of skipping bad files: %v", err)
	}
	if _, ok := r2.Get(goodID); !ok {
		t.Fatal("good model lost")
	}
	if _, ok := r2.Get(badID); ok {
		t.Fatal("tampered model served")
	}
	if warnings := r2.LoadWarnings(); len(warnings) != 2 {
		t.Fatalf("LoadWarnings = %v, want 2 entries", warnings)
	}
}

// TestConcurrentAccess races puts of the same models (so concurrent stages
// of one model file meet at the commit) and reads, in memory and on disk; on
// disk each model leaves exactly its one file and no staged temp file.
func TestConcurrentAccess(t *testing.T) {
	models := make([]*core.FittedModel, 4)
	for i := range models {
		models[i] = fixtureModel(t, int64(i))
	}
	for _, dir := range []string{"", t.TempDir()} {
		r, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id, err := r.Put(models[i%len(models)])
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := r.Get(id); !ok {
					t.Error("model vanished")
				}
				r.List()
				r.Len()
			}(i)
		}
		wg.Wait()
		if r.Len() != len(models) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(models))
		}
		if dir == "" {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(models) {
			t.Errorf("directory holds %v, want one file per model", files)
		}
	}
}

func TestClockStampsCreatedAt(t *testing.T) {
	now := time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)
	r, err := Open(Options{Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Put(fixtureModel(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := r.Stat(id)
	if !info.CreatedAt.Equal(now) {
		t.Fatalf("CreatedAt = %v, want %v", info.CreatedAt, now)
	}
}

func TestAcceptanceTableLifecycle(t *testing.T) {
	r, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := fixtureModel(t, 9)
	id, err := r.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Acceptance(id); ok {
		t.Fatal("fresh model must have no acceptance table")
	}
	if r.SetAcceptance("no-such-model", []float64{1}) {
		t.Fatal("SetAcceptance accepted an unknown model ID")
	}
	table := []float64{0.5, 1, 0.25}
	if !r.SetAcceptance(id, table) {
		t.Fatal("SetAcceptance rejected a resident model")
	}
	got, ok := r.Acceptance(id)
	if !ok || len(got) != len(table) || got[0] != 0.5 {
		t.Fatalf("Acceptance = %v, %v", got, ok)
	}
	// Eviction must drop the table with the model: a later re-fit of the same
	// parameters re-inserts the model under the same content address, and it
	// must come back table-less.
	if !r.Evict(id) {
		t.Fatal("Evict failed")
	}
	if _, ok := r.Acceptance(id); ok {
		t.Fatal("acceptance table survived model eviction")
	}
	id2, err := r.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("content address changed across re-put: %s vs %s", id2, id)
	}
	if _, ok := r.Acceptance(id2); ok {
		t.Fatal("re-put model inherited a stale acceptance table")
	}
}

func TestAcceptanceTableDroppedByBoundedEviction(t *testing.T) {
	r, err := Open(Options{MaxModels: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Put(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !r.SetAcceptance(first, []float64{1}) {
		t.Fatal("SetAcceptance failed")
	}
	if _, err := r.Put(fixtureModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Acceptance(first); ok {
		t.Fatal("bounded eviction left the old model's acceptance table behind")
	}
}

// TestSetAcceptanceRacingEvict runs SetAcceptance and Evict of one model at
// once, many times, on a persistent registry: whichever lands first, the
// model ends evicted, and the table directory must then hold no .table file
// (nor a staged temp file) for it.
func TestSetAcceptanceRacingEvict(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := fixtureModel(t, 5)
	table := []float64{0.5, 0.25, 1}
	for round := 0; round < 50; round++ {
		id, err := r.Put(m)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.SetAcceptance(id, table)
		}()
		go func() {
			defer wg.Done()
			r.Evict(id)
		}()
		wg.Wait()
		if _, ok := r.Model(id); ok {
			t.Fatalf("round %d: model survived Evict", round)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
			t.Fatalf("round %d: directory of an empty registry holds %v", round, files)
		}
	}
}
