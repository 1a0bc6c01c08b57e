package obs

// Instrumentation-overhead benchmarks. The acceptance bar for this layer is
// that the counter fast path stays under 100ns/op — cheap enough to leave on
// in every hot loop. BenchmarkMutexCounterInc is the baseline a lock-based
// design would have cost.

import (
	"sync"
	"testing"
	"time"
)

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// mutexCounter is the design the atomic fast path replaces.
type mutexCounter struct {
	mu sync.Mutex
	v  int64
}

func (c *mutexCounter) Inc() {
	c.mu.Lock()
	c.v++
	c.mu.Unlock()
}

func BenchmarkMutexCounterInc(b *testing.B) {
	var c mutexCounter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_depth", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkHistogramObserveDuration(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(4200 * time.Microsecond)
	}
}

// BenchmarkCounterVecWith measures the labeled lookup path (one key build +
// lock-free map hit); hot paths that can hold the child handle directly
// should, but the lookup itself must stay cheap enough for per-request use.
func BenchmarkCounterVecWith(b *testing.B) {
	vec := NewRegistry().CounterVec("bench_vec_total", "", "route", "code")
	vec.With("GET /v1/jobs/{id}", "200").Inc() // warm the child
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.With("GET /v1/jobs/{id}", "200").Inc()
	}
}

func BenchmarkStageTimerAdd(b *testing.B) {
	st := NewStageTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Add("generate", time.Microsecond)
	}
}
