// Package obs is the service's dependency-free observability layer: a
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms, optionally labeled), Prometheus-text and JSON exposition, and a
// lightweight per-request tracing context (request IDs and stage-span
// recording).
//
// # Design constraints
//
// The package instruments the hot paths of a system whose core contract is
// bit-for-bit determinism, so it must be invisible to the work it measures:
//
//   - The counter fast path is a single atomic add on a handle the caller
//     obtained once at setup — no locks, no allocation, no map lookups
//     (BenchmarkCounterInc pins it well under 100ns/op).
//   - Observing a histogram is a short linear scan over the fixed bucket
//     bounds plus two atomic adds.
//   - Nothing in the package touches math/rand or any RNG: instrumentation
//     reads clocks and memory, never entropy, so the seq-vs-parallel and
//     fixed-seed byte-equality property tests hold with metrics enabled.
//
// # Registries
//
// A Registry owns a namespace of metric families. Default() is the
// process-wide registry every subsystem (engine, parallel fan-out, stores,
// jobs, HTTP middleware) registers into; the server exposes it as GET /metrics
// (Prometheus text format) and GET /v1/stats (JSON snapshot with computed
// p50/p95/p99). Registration is idempotent — asking for an existing family
// with the same kind returns the resident instance — so layers can declare
// their metrics in package position without coordinating initialisation
// order.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric families a registry holds.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets are the default histogram upper bounds in seconds, spanning
// 100µs to 60s — wide enough for both sub-millisecond store hits and
// multi-second DP fits. A final +Inf bucket is always implicit.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing metric. Inc and Add are the
// allocation-free, lock-free fast path; callers hold the handle, obtained
// once from a Registry or a Vec, for the life of the process.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic; this is not
// checked on the fast path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value. It is float64-valued internally —
// privacy-budget gauges carry fractional ε — while keeping the integer API
// for the counters-of-things callers: integers up to 2^53 round-trip exactly
// through the float representation, far beyond any resident-object or byte
// count this service reports.
type Gauge struct {
	v atomic.Uint64 // math.Float64bits representation
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.SetFloat(float64(n)) }

// SetFloat replaces the value with a float64 (fractional gauges, e.g. spent
// privacy budget).
func (g *Gauge) SetFloat(v float64) { g.v.Store(math.Float64bits(v)) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.AddFloat(float64(n)) }

// AddFloat adds v (negative to subtract). Concurrent adds are linearized with
// a compare-and-swap loop; the gauge never loses an update.
func (g *Gauge) AddFloat(v float64) {
	for {
		old := g.v.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.AddFloat(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.AddFloat(-1) }

// Value returns the current value truncated to an integer; FloatValue
// preserves fractional gauges.
func (g *Gauge) Value() int64 { return int64(g.FloatValue()) }

// FloatValue returns the current value.
func (g *Gauge) FloatValue() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket latency histogram. Observations are atomic;
// quantiles are computed at snapshot time by linear interpolation within the
// bucket that crosses the requested rank (the same estimate Prometheus's
// histogram_quantile performs server-side).
type Histogram struct {
	bounds []float64      // sorted upper bounds; counts has one extra +Inf slot
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64   // nanoseconds-scaled sum (1e9 units per second)
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records a value (in seconds, for latency histograms). The scan over
// the fixed bounds plus two atomic adds is the whole cost.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(v * 1e9))
	h.count.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values (seconds).
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / 1e9 }

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution by linear interpolation inside the bucket that crosses the
// requested rank. With no observations it returns 0. Observations beyond the
// last finite bound are reported as that bound (the histogram cannot resolve
// further).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: the last finite bound is the best estimate.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*((rank-float64(cum))/float64(n))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshotBuckets returns the cumulative per-bucket counts (excluding +Inf)
// and the +Inf total, for exposition.
func (h *Histogram) snapshotBuckets() ([]int64, int64) {
	cum := make([]int64, len(h.bounds))
	var running int64
	for i := range h.bounds {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, running + h.counts[len(h.bounds)].Load()
}

// family is one named metric family: a fixed kind and label-name set, and a
// set of children keyed by their label values. Children are resolved through
// a sync.Map, so the steady-state lookup in Vec.With is lock-free.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram families only

	children sync.Map // labelKey string -> *child
	mu       sync.Mutex

	gaugeFn atomic.Value // func() float64, unlabeled gauge families only
}

// child is one concrete metric within a family.
type child struct {
	labels []string // label values, parallel to family.labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// labelKey joins label values into the map key. 0x1f (ASCII unit separator)
// cannot legally appear in a label value produced by this codebase.
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	if c, ok := f.children.Load(key); ok {
		return c.(*child)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c.(*child)
	}
	c := &child{labels: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.c = &Counter{}
	case KindGauge:
		c.g = &Gauge{}
	case KindHistogram:
		c.h = newHistogram(f.bounds)
	}
	f.children.Store(key, c)
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use. Hold the returned handle when the label set is static; the lookup
// itself is lock-free after first use but builds one key string.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// Registry owns a namespace of metric families. The zero value is not
// usable; construct with NewRegistry or use the process-wide Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that every subsystem registers
// into and the server's /metrics endpoint serves.
func Default() *Registry { return defaultRegistry }

// register resolves (or creates) a family. Registration is idempotent: an
// existing family with the same kind is returned as-is, so independent
// packages (or repeated constructions in tests) can declare the same metric.
// A kind mismatch is a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: append([]string(nil), labels...), bounds: bounds}
	r.families[name] = f
	return f
}

// Counter declares (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).get(nil).c
}

// CounterVec declares (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// Gauge declares (or resolves) an unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).get(nil).g
}

// GaugeVec declares (or resolves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// GaugeFunc declares an unlabeled gauge whose value is computed at scrape
// time. Re-registering replaces the function (last wins), which lets a
// rebuilt server re-point "live state" gauges at its current engine and
// stores.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.gaugeFn.Store(fn)
}

// Histogram declares (or resolves) an unlabeled histogram. bounds are the
// bucket upper bounds in ascending order; nil selects DefBuckets. The bounds
// of an already registered family are kept.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, bounds).get(nil).h
}

// HistogramVec declares (or resolves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels, bounds)}
}

// sortedFamilies returns the registered families in name order (the
// exposition order for both formats).
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren returns a family's children in label-value order.
func (f *family) sortedChildren() []*child {
	var out []*child
	f.children.Range(func(_, v any) bool {
		out = append(out, v.(*child))
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labels, out[j].labels
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
