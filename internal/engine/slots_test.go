package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// blockingCache is an AcceptanceCache whose lookups block until release is
// closed, so a test can hold a draw mid-flight for as long as it needs.
type blockingCache struct {
	*countingCache
	entered chan struct{} // signalled on every lookup; buffered above the lookups one test makes
	release chan struct{}
}

func newBlockingCache() *blockingCache {
	return &blockingCache{
		countingCache: newCountingCache(),
		entered:       make(chan struct{}, 16),
		release:       make(chan struct{}),
	}
}

func (c *blockingCache) Acceptance(id string) ([]float64, bool) {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	<-c.release
	return c.countingCache.Acceptance(id)
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSlotHeldUntilDrawReturns holds a one-slot engine's draw in the
// acceptance cache: a second caller queues for the slot, the first caller's
// cancellation returns at once without freeing the slot, and the waiting
// caller draws only after the held draw is released.
func TestSlotHeldUntilDrawReturns(t *testing.T) {
	cache := newBlockingCache()
	e := New(Config{Workers: 1, Seed: 1, Acceptance: cache})
	defer e.Close()
	m := fixtureModel(t)

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := e.Sample(ctxA, Request{Model: m, Seed: 3, CacheKey: "k"})
		errA <- err
	}()
	<-cache.entered

	errB := make(chan error, 1)
	go func() {
		_, err := e.Sample(context.Background(), Request{Model: m, Seed: 4, CacheKey: "k"})
		errB <- err
	}()
	waitFor(t, "the second caller to queue", func() bool { return e.Stats().QueueDepth == 1 })
	if s := e.Stats(); s.InFlight != 1 {
		t.Fatalf("Stats = %+v, want one draw in flight", s)
	}

	cancelA()
	select {
	case err := <-errA:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled caller waited for its held draw")
	}

	// The held draw still owns the only slot.
	select {
	case err := <-errB:
		t.Fatalf("waiting caller returned (%v) while the held draw owned the slot", err)
	case <-cache.entered:
		t.Fatal("waiting caller started drawing while the held draw owned the slot")
	case <-time.After(100 * time.Millisecond):
	}
	if s := e.Stats(); s.QueueDepth != 1 || s.InFlight != 1 {
		t.Fatalf("after cancel, Stats = %+v, want one waiting and one in flight", s)
	}

	close(cache.release)
	select {
	case err := <-errB:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("waiting caller never got the slot")
	}
	waitFor(t, "both draws to finish", func() bool { return e.Stats().Completed == 2 })
	if s := e.Stats(); s.QueueDepth != 0 || s.InFlight != 0 || s.Failed != 0 {
		t.Fatalf("after release, Stats = %+v", s)
	}
}

// TestCloseWaitsForAdmittedDraws: Close refuses new samples at once but
// returns only after the draws it admitted have finished.
func TestCloseWaitsForAdmittedDraws(t *testing.T) {
	cache := newBlockingCache()
	e := New(Config{Workers: 1, Seed: 1, Acceptance: cache})
	m := fixtureModel(t)
	req := Request{Model: m, Seed: 3, CacheKey: "k"}

	errA := make(chan error, 1)
	go func() {
		_, err := e.Sample(context.Background(), req)
		errA <- err
	}()
	<-cache.entered

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	waitFor(t, "Close to refuse new samples", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, err := e.Sample(ctx, req)
		return errors.Is(err, ErrClosed)
	})
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted draw was still running")
	case <-time.After(100 * time.Millisecond):
	}

	close(cache.release)
	select {
	case <-closed:
	case <-time.After(time.Minute):
		t.Fatal("Close did not return after the held draw finished")
	}
	if got := e.Stats().Completed; got != 1 {
		t.Fatalf("Close returned with %d completed draws, want 1", got)
	}
	if err := <-errA; err != nil {
		t.Fatalf("admitted draw failed: %v", err)
	}
}
