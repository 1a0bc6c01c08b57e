package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

const promBefore = `# HELP agmdp_http_request_duration_seconds Wall-clock duration of HTTP requests, by route pattern.
# TYPE agmdp_http_request_duration_seconds histogram
agmdp_http_request_duration_seconds_bucket{route="GET /v1/graphs/{id}",le="0.001"} 3
agmdp_http_request_duration_seconds_sum{route="GET /v1/graphs/{id}"} 0.5
agmdp_http_request_duration_seconds_count{route="GET /v1/graphs/{id}"} 4
agmdp_http_request_duration_seconds_sum{route="POST /v1/sample"} 2
agmdp_jobs_stage_duration_seconds_sum{kind="fit",stage="attrs"} 1.25
agmdp_pool_tasks_total 10
`

const promAfter = `agmdp_http_request_duration_seconds_sum{route="GET /v1/graphs/{id}"} 0.75
agmdp_http_request_duration_seconds_count{route="GET /v1/graphs/{id}"} 6
agmdp_http_request_duration_seconds_sum{route="POST /v1/sample"} 5.5
agmdp_jobs_stage_duration_seconds_sum{kind="fit",stage="attrs"} 1.5
agmdp_jobs_stage_duration_seconds_sum{kind="sample",stage="store"} 0.25
agmdp_tenant_budget_spent{tenant="a\"b",graph="g"} 1.5
agmdp_pool_tasks_total 17
`

func TestPromHistogramDeltas(t *testing.T) {
	before, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for _, tc := range []struct {
		name string
		want map[string]string
		sum  float64
	}{
		{"agmdp_http_request_duration_seconds_sum", map[string]string{"route": "GET /v1/graphs/{id}"}, 0.25},
		{"agmdp_http_request_duration_seconds_count", nil, 2},
		{"agmdp_http_request_duration_seconds_sum", nil, 3.75},
		{"agmdp_jobs_stage_duration_seconds_sum", map[string]string{"kind": "fit"}, 0.25},
		// A labeled child that first appears after the baseline counts from zero.
		{"agmdp_jobs_stage_duration_seconds_sum", map[string]string{"stage": "store"}, 0.25},
		{"agmdp_pool_tasks_total", nil, 7},
		{"agmdp_tenant_budget_spent", map[string]string{"tenant": `a"b`}, 1.5},
	} {
		if got := d.sum(tc.name, tc.want); math.Abs(got-tc.sum) > 1e-12 {
			t.Errorf("delta %s%v = %v, want %v", tc.name, tc.want, got, tc.sum)
		}
	}
	if _, err := parseProm("agmdp_x{route=\"GET /\" 1\n"); err == nil {
		t.Error("unterminated label block parsed")
	}
}

func TestParseMemStats(t *testing.T) {
	ms, err := parseMemStats("heap profile: 1: 2 [3: 4] @ heap/1048576\n# runtime.MemStats\n# Alloc = 10\n# TotalAlloc = 55804256\n# NumGC = 25\n# NumForcedGC = 0\n")
	if err != nil || ms.totalAlloc != 55804256 || ms.numGC != 25 {
		t.Fatalf("parseMemStats = %+v, %v", ms, err)
	}
	if _, err := parseMemStats("# Alloc = 1\n"); err == nil {
		t.Error("missing counters accepted")
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(msec int) time.Time { return origin.Add(time.Duration(msec) * time.Millisecond) }
	tr := newTracer(origin)
	root := tr.begin(1, 0, rootSpan, at(0))
	fit := tr.record(1, root, "core.fit", at(0), at(40))
	tr.record(1, fit, "core.fit.triangles", at(5), at(25))
	// Two overlapping calls under one parent cover 60..90 once, not twice.
	tr.record(1, root, "graph.encode", at(60), at(80))
	tr.record(1, root, "graph.encode", at(70), at(90))
	tr.end(root, at(100))

	spans := tr.snapshot()
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		rootSpan:             30 * time.Millisecond, // 100 − 40 − 30
		"core.fit":           20 * time.Millisecond,
		"core.fit.triangles": 20 * time.Millisecond,
		"graph.encode":       40 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if opWall(spans) != 100*time.Millisecond {
		t.Errorf("op wall = %v", opWall(spans))
	}

	// A timer-derived layer moves its time out of its parent; one without a
	// parent runs beside the spans and reduces nothing.
	self = layerSelf(spans, []serverLayer{
		{"structural.rewire", "core.fit", 15 * time.Millisecond},
		{"core.table_warm", "", 50 * time.Millisecond},
	})
	if self["core.fit"] != 5*time.Millisecond || self["structural.rewire"] != 15*time.Millisecond ||
		self["core.table_warm"] != 50*time.Millisecond || self[rootSpan] != 30*time.Millisecond {
		t.Errorf("layerSelf = %v", self)
	}

	var nilTracer *tracer
	if id := nilTracer.begin(1, 0, rootSpan, at(0)); id != 0 || nilTracer.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

// The open loop keeps to its schedule while earlier sends are still busy:
// a slow server delays responses, never the sends behind them.
func TestOpenLoopSendsOnScheduleDespiteSlowSends(t *testing.T) {
	dues := arrivals(rand.New(rand.NewSource(1)), 100, 300*time.Millisecond)
	if len(dues) != 30 {
		t.Fatalf("%d arrivals at 100/s over 300ms, want 30", len(dues))
	}
	for i, d := range dues {
		if d < 0 || d >= 300*time.Millisecond || (i > 0 && d < dues[i-1]) {
			t.Fatalf("arrivals not sorted within the phase: %v", dues)
		}
	}
	var mu sync.Mutex
	var late []float64
	start := time.Now()
	openLoop(context.Background(), start, dues, func(i int, due time.Time) {
		mu.Lock()
		late = append(late, ms(time.Since(due)))
		mu.Unlock()
		time.Sleep(100 * time.Millisecond)
	})
	if len(late) != len(dues) {
		t.Fatalf("%d sends, want %d", len(late), len(dues))
	}
	if p := percentile(sortedCopy(late), 95); p < 0 || p > 50 {
		t.Errorf("generator p95 lateness %.1f ms behind 100 ms sends", p)
	}
	if total := time.Since(start); total > 600*time.Millisecond {
		t.Errorf("open loop took %v for a 300ms schedule of 100ms sends", total)
	}
}
