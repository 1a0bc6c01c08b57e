package jobs

// Admission-control tests for fit jobs: the bounded fit-worker pool (queued
// fits are visible as StatusQueued), prompt cancellation of queued and
// running fits, and the OnDone terminal callback the tenancy layer hangs
// refunds on.

import (
	"context"
	"testing"
	"time"

	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/registry"
)

// newBoundedFitManager builds a manager with exactly one fit slot, so a test
// can occupy it and deterministically observe the queued state.
func newBoundedFitManager(t *testing.T) *Manager {
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
	m, err := New(Options{Engine: eng, Store: store, Models: reg, MaxConcurrentFits: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestFitJobQueuedStateVisible occupies the single fit slot and expects a
// submitted fit to report StatusQueued (never StatusRunning) until the slot
// frees, then run to completion.
func TestFitJobQueuedStateVisible(t *testing.T) {
	m := newBoundedFitManager(t)
	m.fitSem <- struct{}{} // occupy the only slot

	id, err := m.SubmitFit(FitSpec{Graph: fixtureGraph(t), Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The job must stay visibly queued while the slot is held.
	time.Sleep(20 * time.Millisecond)
	info, _, ok := m.Get(id)
	if !ok || info.Status != StatusQueued {
		t.Fatalf("job with no free fit slot is %v, want %v", info.Status, StatusQueued)
	}
	if !info.StartedAt.IsZero() {
		t.Errorf("queued job carries a start time %v", info.StartedAt)
	}

	<-m.fitSem // release the slot
	final := wait(t, m, id)
	if final.Status != StatusDone || final.Fit == nil || final.Fit.ModelID == "" {
		t.Fatalf("released fit ended %+v", final)
	}
}

// TestFitJobCancelWhileQueued cancels a fit that never got a slot: it must
// finish as cancelled without running the pipeline, and OnDone must report an
// empty model ID — the tenancy layer's cue to refund the pre-charged ε.
func TestFitJobCancelWhileQueued(t *testing.T) {
	m := newBoundedFitManager(t)
	m.fitSem <- struct{}{}
	defer func() { <-m.fitSem }()

	donec := make(chan string, 1)
	id, err := m.SubmitFit(FitSpec{
		Graph: fixtureGraph(t), Epsilon: 1, Seed: 3,
		OnDone: func(modelID string) { donec <- modelID },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(id) {
		t.Fatal("cancel of queued fit refused")
	}
	info := wait(t, m, id)
	if info.Status != StatusCancelled {
		t.Fatalf("cancelled queued fit ended %v", info.Status)
	}
	if info.Fit != nil || info.ModelID != "" {
		t.Errorf("cancelled queued fit carries a result: %+v", info)
	}
	if mid := recvModelID(t, donec); mid != "" {
		t.Errorf("OnDone model ID = %q for a fit that never ran, want empty", mid)
	}
}

// recvModelID receives the OnDone callback's value with a timeout (a fit
// that released nothing fires OnDone after the terminal record commits,
// which can trail Wait slightly).
func recvModelID(t *testing.T, donec <-chan string) string {
	t.Helper()
	select {
	case mid := <-donec:
		return mid
	case <-time.After(10 * time.Second):
		t.Fatal("OnDone never fired")
		return ""
	}
}

// TestFitJobCancelRunningPromptly cancels a fit mid-pipeline on a graph big
// enough that the pipeline is still in flight: the job must reach
// StatusCancelled promptly (the context aborts at the next stage boundary)
// and report an empty model ID.
func TestFitJobCancelRunningPromptly(t *testing.T) {
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1})
	t.Cleanup(eng.Close)
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Engine: eng, Store: store, Models: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	// A denser graph keeps the measurement passes busy long enough to land
	// the cancel mid-pipeline (and if the fit wins the race anyway, the test
	// still verifies the produced==true contract below).
	rng := dp.NewRand(13)
	b := graph.NewBuilder(1500, 2)
	for i := 0; i < 60000; i++ {
		b.AddEdge(rng.Intn(1500), rng.Intn(1500))
	}
	g := b.Finalize()

	donec := make(chan string, 1)
	id, err := m.SubmitFit(FitSpec{
		Graph: g, Epsilon: 1, Seed: 3,
		OnDone: func(modelID string) { donec <- modelID },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the running state, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _, ok := m.Get(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if info.Status != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	m.Cancel(id)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !m.Wait(ctx, id) {
		t.Fatal("cancelled fit did not finish")
	}
	elapsed := time.Since(start)
	info, _, _ := m.Get(id)
	mid := recvModelID(t, donec)
	switch info.Status {
	case StatusCancelled:
		if mid != info.ModelID {
			t.Errorf("OnDone model ID = %q, cancelled record carries %q", mid, info.ModelID)
		}
	case StatusDone:
		// The fit won the race with the cancel; the charge must then stand.
		if mid == "" {
			t.Error("completed fit reported an empty model ID")
		}
	default:
		t.Fatalf("cancelled fit ended %v", info.Status)
	}
	// Prompt is relative to a full fit on this graph (multiple seconds): the
	// abort must land at a stage boundary, not after the whole pipeline.
	if info.Status == StatusCancelled && elapsed > 15*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestFitJobOnDoneProducedTrue pins the other half of the refund contract: a
// fit that completes and registers its model reports the model's ID (the
// tenancy layer's cue to let the ε charge stand and grant ownership).
func TestFitJobOnDoneProducedTrue(t *testing.T) {
	m, _ := newFitManager(t, "")
	donec := make(chan string, 1)
	id, err := m.SubmitFit(FitSpec{
		Graph: fixtureGraph(t), Epsilon: 1, Seed: 3,
		OnDone: func(modelID string) { donec <- modelID },
	})
	if err != nil {
		t.Fatal(err)
	}
	info := wait(t, m, id)
	if info.Status != StatusDone {
		t.Fatalf("fit ended %v", info.Status)
	}
	if mid := recvModelID(t, donec); mid == "" || mid != info.ModelID {
		t.Errorf("OnDone model ID = %q, want the registered %q", mid, info.ModelID)
	}
}

// TestFitJobOnDoneOrdering pins when OnDone runs relative to the terminal
// status. A fit that registered a model must call OnDone while Get still
// reports the job unfinished, so the tenancy layer grants the model before a
// client polling for "done" can request it. A fit that released nothing must
// call OnDone only once the terminal record is committed, so its refund never
// races a restart that would still show the job running.
func TestFitJobOnDoneOrdering(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      FitSpec
		bounded   bool // occupy the only fit slot and cancel while queued
		wantModel bool
	}{
		{name: "registered", spec: FitSpec{Epsilon: 1, Seed: 3}, wantModel: true},
		{name: "failed", spec: FitSpec{Epsilon: 1, Seed: 3, ModelKind: "tcl"}},
		{name: "cancelled-queued", spec: FitSpec{Epsilon: 1, Seed: 3}, bounded: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m *Manager
			if tc.bounded {
				m = newBoundedFitManager(t)
				m.fitSem <- struct{}{}
				defer func() { <-m.fitSem }()
			} else {
				m, _ = newFitManager(t, "")
			}
			type seen struct {
				modelID string
				status  Status
			}
			idc := make(chan string, 1)
			seenc := make(chan seen, 1)
			spec := tc.spec
			spec.Graph = fixtureGraph(t)
			spec.OnDone = func(modelID string) {
				info, _, _ := m.Get(<-idc)
				seenc <- seen{modelID, info.Status}
			}
			id, err := m.SubmitFit(spec)
			if err != nil {
				t.Fatal(err)
			}
			idc <- id
			if tc.bounded && !m.Cancel(id) {
				t.Fatal("cancel of queued fit refused")
			}
			info := wait(t, m, id)
			var got seen
			select {
			case got = <-seenc:
			case <-time.After(10 * time.Second):
				t.Fatal("OnDone never fired")
			}
			if tc.wantModel {
				if got.modelID == "" || got.modelID != info.ModelID {
					t.Fatalf("OnDone model ID = %q, job carries %q", got.modelID, info.ModelID)
				}
				if got.status.Finished() {
					t.Errorf("OnDone saw status %v before the grant; want it unfinished", got.status)
				}
				return
			}
			if got.modelID != "" {
				t.Fatalf("OnDone model ID = %q for a fit that released nothing", got.modelID)
			}
			if !got.status.Finished() {
				t.Errorf("OnDone saw status %v; a refund must follow the terminal record", got.status)
			}
		})
	}
}

// TestMaxConcurrentFitsDefault pins the GOMAXPROCS-aware default: a zero
// option still yields at least two slots.
func TestMaxConcurrentFitsDefault(t *testing.T) {
	m, _ := newFitManager(t, "")
	if cap(m.fitSem) < 2 {
		t.Errorf("default fit slots = %d, want at least 2", cap(m.fitSem))
	}
}
