// Package parallel is the shared execution layer of the library: one
// process-wide worker pool, node-range sharding helpers, and a deterministic
// fan-out primitive that every concurrent code path (graph analytics, the
// sensitivity scan, the structural generators and the sampling engine's
// intra-job streams) runs on.
//
// # Pool
//
// The pool holds runtime.GOMAXPROCS(0) resident workers, started lazily on
// first use, draining a single FIFO task queue. Centralising execution keeps
// the process's total compute concurrency bounded no matter how many layers
// fan out at once: when the sampling engine runs GOMAXPROCS jobs and each job
// shards its analytics, the shard tasks queue up behind the same workers
// instead of multiplying goroutines.
//
// Nested fan-out cannot deadlock: Group.Wait is a helping wait — while tasks
// of its own group are still queued it claims and runs them in the waiting
// goroutine, so a saturated pool degrades to inline execution rather than
// blocking. A waiter only ever helps with its own group's tasks, never with
// unrelated (possibly blocking) work.
//
// # Determinism
//
// Do(n, fn) calls fn(0) … fn(n−1) concurrently and returns when all are done.
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

// Pool metrics, registered on the process-wide default registry. The
// per-task cost is two clock reads and three atomic adds — tasks are
// shard-sized (a worker's slice of an analytics or generation pass), so the
// instrumentation is noise next to the work it measures, and it reads no
// entropy, so task results are untouched.
var (
	poolTasks = obs.Default().Counter("agmdp_pool_tasks_total",
		"Tasks executed by the shared worker pool (including helping-wait inline runs).")
	poolTaskDur = obs.Default().Histogram("agmdp_pool_task_duration_seconds",
		"Wall-clock duration of shared-pool tasks.")
	poolInFlight = obs.Default().Gauge("agmdp_pool_inflight_tasks",
		"Shared-pool tasks currently executing.")
)

func init() {
	obs.Default().GaugeFunc("agmdp_pool_queue_depth",
		"Tasks queued on the shared worker pool, not yet claimed.",
		func() float64 {
			shared.mu.Lock()
			defer shared.mu.Unlock()
			return float64(len(shared.queue))
		})
	obs.Default().GaugeFunc("agmdp_pool_workers",
		"Resident shared-pool workers (0 until first use).",
		func() float64 {
			shared.mu.Lock()
			defer shared.mu.Unlock()
			return float64(shared.workers)
		})
}

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

// task is one queued unit of work, tied to the Group that awaits it. A task
// is listed both in the pool queue and in its group's own list; whoever
// claims it first (a pool worker or the group's helping waiter) runs it, and
// the loser skips the tombstone.
type task struct {
	fn      func()
	group   *Group
	claimed atomic.Bool
}

// pool is the process-wide worker pool. All state is guarded by mu; cond is
// signalled when tasks arrive and broadcast when tasks finish (Group.Wait
// listens for both).
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*task
	started bool
	workers int
}

var shared = func() *pool {
	p := &pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}()

// startLocked launches the resident workers on first use. Callers hold p.mu.
func (p *pool) startLocked() {
	if p.started {
		return
	}
	p.started = true
	p.workers = runtime.GOMAXPROCS(0)
	for i := 0; i < p.workers; i++ {
		go p.worker()
	}
}

// worker drains the task queue for the life of the process, skipping tasks a
// helping waiter already claimed.
func (p *pool) worker() {
	p.mu.Lock()
	for {
		for len(p.queue) == 0 {
			p.cond.Wait()
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		if !t.claimed.CompareAndSwap(false, true) {
			continue
		}
		p.mu.Unlock()
		t.run()
		p.mu.Lock()
	}
}

// Stats is a point-in-time snapshot of the shared pool, for /v1/healthz.
type Stats struct {
	// Workers is the resident worker count (0 until the pool's first use).
	Workers int `json:"workers"`
	// QueueDepth is the number of queued, unclaimed tasks.
	QueueDepth int `json:"queue_depth"`
	// InFlight is the number of tasks currently executing.
	InFlight int64 `json:"in_flight"`
	// TasksCompleted is the lifetime number of executed tasks.
	TasksCompleted int64 `json:"tasks_completed"`
}

// PoolStats snapshots the shared pool's load.
func PoolStats() Stats {
	shared.mu.Lock()
	workers, depth := shared.workers, len(shared.queue)
	shared.mu.Unlock()
	return Stats{
		Workers:        workers,
		QueueDepth:     depth,
		InFlight:       poolInFlight.Value(),
		TasksCompleted: poolTasks.Value(),
	}
}

// run executes one task, capturing a panic for re-raising in Group.Wait, and
// marks it finished.
func (t *task) run() {
	start := time.Now()
	poolInFlight.Inc()
	defer func() {
		poolInFlight.Dec()
		poolTaskDur.ObserveDuration(time.Since(start))
		poolTasks.Inc()
	}()
	defer t.finish()
	defer func() {
		if r := recover(); r != nil {
			t.group.mu.Lock()
			if t.group.panicked == nil {
				t.group.panicked = r
			}
			t.group.mu.Unlock()
		}
	}()
	t.fn()
}

// finish decrements the group's outstanding count and wakes waiters.
func (t *task) finish() {
	p := t.group.pool
	p.mu.Lock()
	t.group.pending--
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Group awaits a set of tasks submitted to the shared pool. The zero value is
// ready to use. A Group must not be reused after Wait returns. pending and
// tasks are guarded by the pool mutex; mu guards only panicked.
type Group struct {
	pool     *pool
	pending  int
	tasks    []*task
	mu       sync.Mutex
	panicked any
}

// Go submits fn to the shared pool.
func (g *Group) Go(fn func()) {
	if g.pool == nil {
		g.pool = shared
	}
	p := g.pool
	t := &task{fn: fn, group: g}
	p.mu.Lock()
	p.startLocked()
	g.pending++
	g.tasks = append(g.tasks, t)
	p.queue = append(p.queue, t)
	p.mu.Unlock()
	p.cond.Signal()
}

// Wait blocks until every task submitted with Go has finished. It is a
// helping wait: while tasks of this group are still queued it claims and runs
// them in the calling goroutine, so nested fan-out on a saturated (or
// single-core) pool makes progress instead of deadlocking. If any task
// panicked, Wait re-panics with the first captured value in the caller.
func (g *Group) Wait() {
	if g.pool == nil {
		return // nothing was ever submitted
	}
	p := g.pool
	p.mu.Lock()
	for g.pending > 0 {
		var t *task
		for len(g.tasks) > 0 {
			cand := g.tasks[0]
			g.tasks = g.tasks[1:]
			if cand.claimed.CompareAndSwap(false, true) {
				t = cand
				break
			}
		}
		if t != nil {
			p.mu.Unlock()
			t.run()
			p.mu.Lock()
			continue
		}
		// All of this group's tasks are claimed and running elsewhere; sleep
		// until a finish broadcast, then re-check.
		p.cond.Wait()
	}
	p.mu.Unlock()
	if g.panicked != nil {
		panic(g.panicked)
	}
}

// Do runs fn(0) … fn(n−1) on the shared pool and returns when all calls have
// finished. fn(0) runs inline in the calling goroutine (the caller is a
// worker too), the rest are submitted to the pool. n ≤ 0 is a no-op. Panics
// in any call are re-raised in the caller after the remaining calls finish.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var g Group
	for i := 1; i < n; i++ {
		i := i
		g.Go(func() { fn(i) })
	}
	var inlinePanic any
	func() {
		defer func() { inlinePanic = recover() }()
		fn(0)
	}()
	g.Wait() // re-raises pool-side panics first
	if inlinePanic != nil {
		panic(inlinePanic)
	}
}
