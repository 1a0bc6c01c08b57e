package main

import (
	"math"
	"testing"
	"time"
)

// Each workload's tail percentile must keep minBeyond samples beyond it at
// the sample count a run reaches on an unshared host.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for name, n := range map[string]int{"publish-tricycle": 80, "fit-pokec": 40, "serve-sample": 100, "serve-mixed": 600} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		if got := beyond(n, w.tail); got < minBeyond {
			t.Errorf("%s: p%v of %d samples leaves %d beyond, want ≥ %d", name, w.tail, n, got, minBeyond)
		}
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{0, 50, 0}, {1, 50, 0}, {40, 75, 10}, {39, 75, 9}, {100, 90, 10}, {200, 95, 10}} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 75: 75, 90: 90, 95: 95, 100: 100, 0.1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if beyond(100, 90) != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", beyond(100, 90))
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The quartiles must equal Python's statistics.quantiles(values, n=4), which
// is how the spread of a metric across runs is judged.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// Latency runs from the due time, not from when the request went out, and a
// failed op misses every limit.
func TestLatencyRunsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &phase{start: t0, deadline: t0.Add(10 * time.Second)}
	// Due at 1s, only sent at 1.5s (a stall), done at 2s: 1000 ms, not 500.
	p.done(opResult{due: t0.Add(time.Second), end: t0.Add(2 * time.Second)})
	p.done(opResult{due: t0.Add(3 * time.Second), end: t0.Add(3*time.Second + 20*time.Millisecond)})
	p.done(opResult{due: t0.Add(4 * time.Second), end: t0.Add(4*time.Second + time.Millisecond), err: errIncorrect})
	got := latencies(p, nil)
	want := []float64{20, 1000, 10000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies = %v, want %v", got, want)
		}
	}
	if ok, span := completed(p); ok != 2 || span != 4*time.Second+time.Millisecond {
		t.Errorf("completed = %d in %v", ok, span)
	}
}

// Stolen CPU time comes out of wall-clock latency, read from the host
// samples around each op: a long op over its own span, a short one over at
// least stealSpan about its middle.
func TestLatencyScalesOutStolenTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	host := hostSeries{
		{t0, hostCPU{busy: 0, steal: 0}},
		{t0.Add(200 * time.Millisecond), hostCPU{busy: 40, steal: 0}},
		{t0.Add(400 * time.Millisecond), hostCPU{busy: 80, steal: 40}},
	}
	p := &phase{start: t0, deadline: t0.Add(10 * time.Second)}
	p.done(opResult{due: t0, end: t0.Add(400 * time.Millisecond)})
	p.done(opResult{due: t0.Add(50 * time.Millisecond), end: t0.Add(100 * time.Millisecond)})
	got := latencies(p, host)
	if math.Abs(got[0]-50) > 1e-9 || math.Abs(got[1]-400*2.0/3) > 1e-9 {
		t.Errorf("latencies = %v, want [50 266.67]", got)
	}
	if s := host.stealOver(t0.Add(250*time.Millisecond), t0.Add(400*time.Millisecond)); s != 0.5 {
		t.Errorf("steal over the last reading pair = %v, want 0.5", s)
	}
	if s := (hostSeries{}).stealOver(t0, t0.Add(time.Second)); s != 0 {
		t.Errorf("steal share of no readings = %v", s)
	}
}
