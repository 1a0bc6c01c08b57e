package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolveAndSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	if got := Resolve(3); got != 3 {
		t.Fatalf("Resolve(3) = %d", got)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-5) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetParallelism(2)
	if got := Resolve(0); got != 2 {
		t.Fatalf("after SetParallelism(2): Resolve(0) = %d", got)
	}
	if got := Resolve(7); got != 7 {
		t.Fatalf("explicit count must win over the default: Resolve(7) = %d", got)
	}
	if prev := SetParallelism(-1); prev != 2 { // restore auto
		t.Fatalf("SetParallelism(-1) returned %d, want the previous setting 2", prev)
	}
	if prev := SetParallelism(0); prev != 0 {
		t.Fatalf("SetParallelism(0) returned %d, want 0 for the built-in default", prev)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetParallelism(-1) did not restore auto: Resolve(0) = %d", got)
	}
}

func TestDoRunsEveryIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		counts := make([]atomic.Int64, n+1)
		Do(n, func(i int) { counts[i].Add(1) })
		for i := 0; i < n; i++ {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: fn(%d) ran %d times", n, i, got)
			}
		}
	}
}

func TestDoNestedDoesNotDeadlock(t *testing.T) {
	// Fan out several levels deep, far past GOMAXPROCS; every level must
	// finish even on a single core.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total atomic.Int64
		Do(8, func(i int) {
			Do(8, func(j int) {
				Do(4, func(k int) { total.Add(1) })
			})
		})
		if total.Load() != 8*8*4 {
			t.Errorf("nested Do ran %d leaf tasks, want %d", total.Load(), 8*8*4)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested Do deadlocked")
	}
}

func TestDoFinishesWhileOtherCallsBlock(t *testing.T) {
	// Park GOMAXPROCS+2 goroutines inside Do calls that block until
	// released; a further Do must still run all of its calls and return.
	release := make(chan struct{})
	var blocked sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0)+2; i++ {
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			Do(2, func(int) { <-release })
		}()
	}
	var ran atomic.Int64
	start := time.Now()
	Do(16, func(i int) { ran.Add(1) })
	if ran.Load() != 16 {
		t.Fatalf("ran %d of 16 tasks", ran.Load())
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("Do blocked behind the blocked calls")
	}
	close(release)
	blocked.Wait()
}

func TestDoPropagatesPanicFromPoolTask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in a goroutine call was swallowed")
		}
	}()
	Do(4, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestDoPropagatesPanicFromInlineShard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic in the inline shard was swallowed")
		}
	}()
	Do(4, func(i int) {
		if i == 0 {
			panic("boom")
		}
	})
}
