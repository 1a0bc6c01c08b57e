// Package parallel is the shared execution layer of the library: node-range
// sharding helpers and a deterministic fan-out primitive that every
// concurrent code path (graph analytics, the sensitivity scan, the
// structural generators and the sampling engine's intra-draw streams) runs
// on.
//
// # Fan-out
//
// Do(n, fn) runs fn(0) in the calling goroutine and fn(1) … fn(n−1) each on
// a goroutine of its own, and returns when all calls are done. There are no
// resident workers: Go's scheduler runs at most GOMAXPROCS goroutines at
// once, so nested fan-out (a draw sharding its analytics while other draws
// do the same) keeps the process's running compute bounded by its cores and
// cannot deadlock, because no call waits for a slot another call holds.
// Worker counts that arrive from outside the program are bounded by
// MaxWorkers before they reach Do.
//
// # Determinism
//
// Callers that write shard i's result into slot i of a results slice and
// reduce the slots in index order get scheduling-independent output; every
// parallel analytic and generator in the repository follows that pattern, so
// their results depend only on their inputs (and, for the generators, on the
// worker count), never on thread timing.
//
// # The parallelism knob
//
// Resolve maps a caller-supplied worker count to an effective one: values
// above zero are taken as-is, values ≤ 0 mean "auto" — the process default
// set with SetParallelism, which itself defaults to runtime.GOMAXPROCS(0).
// The exact measurement passes (graph analytics, fit histograms, the Ladder's
// scans) take no count at all: Workers gives each the process default, or 1
// below its size threshold. The knob is process-wide and re-exported by the
// agmdp facade.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"agmdp/internal/obs"
)

// MaxWorkers is the largest worker count a request body or the
// agmdp-serve -parallelism flag may ask for. Each worker of a draw is a
// goroutine and a proposal stream with its own buffers, so an unbounded
// count from outside the program would let one request allocate without
// limit; 256 is far above any core count the service runs on.
const MaxWorkers = 256

// Fan-out metrics, registered on the process-wide default registry. Each
// call Do runs off the caller's goroutine is one task: two clock reads and
// three atomic adds, noise next to a shard of an analytics or generation
// pass, and no entropy is read, so task results are untouched.
var (
	poolTasks = obs.Default().Counter("agmdp_pool_tasks_total",
		"Calls parallel.Do ran on goroutines other than its caller's.")
	poolTaskDur = obs.Default().Histogram("agmdp_pool_task_duration_seconds",
		"Wall-clock duration of calls parallel.Do ran off its caller's goroutine.")
	poolInFlight = obs.Default().Gauge("agmdp_pool_inflight_tasks",
		"Calls parallel.Do is running off its callers' goroutines now.")
)

// defaultParallelism holds the process default worker count; 0 selects
// runtime.GOMAXPROCS(0) at resolution time.
var defaultParallelism atomic.Int64

// SetParallelism sets the process-wide default worker count used when a
// caller passes a parallelism ≤ 0 ("auto"), and by every exact measurement
// pass (the graph analytics, the fit histograms, the Ladder's scans). Values
// ≤ 0 restore the built-in default of runtime.GOMAXPROCS(0). Pass 1 to force
// every auto-resolved code path sequential (useful for debugging and for
// byte-for-byte reproducibility across machines with different core counts).
// It returns the previous setting (0 for the built-in default), so a caller
// can restore it.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultParallelism.Swap(int64(n)))
}

// Parallelism returns the resolved process default worker count: the value
// set with SetParallelism, or runtime.GOMAXPROCS(0) when unset.
func Parallelism() int {
	if n := defaultParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Resolve maps a caller-supplied worker count to an effective one: n > 0 is
// taken as-is, n ≤ 0 selects the process default (Parallelism).
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return Parallelism()
}

// Do runs fn(0) … fn(n−1) and returns when all calls have finished. fn(0)
// runs inline in the calling goroutine, and fn(1) … fn(n−1) each run on a
// goroutine of their own. n ≤ 0 is a no-op. If any call panics, Do re-raises
// the first captured panic in the caller after every call has returned.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			poolInFlight.Inc()
			call(i)
			poolInFlight.Dec()
			poolTaskDur.ObserveDuration(time.Since(start))
			poolTasks.Inc()
		}(i)
	}
	call(0)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
