package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func series10(base, step float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestJudgeAppliesTheComparisonRule(t *testing.T) {
	parent := series10(100, 1) // 100..104, spread ≈ 3%
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{"faster on every pair", series10(90, 1), "lower", 0.1, "gain"},
		{"higher is better", series10(110, 1), "higher", 0.1, "gain"},
		{"within the parent's spread", series10(100.5, 1), "lower", 0.1, "no change"},
		{"worse by more than the bound", series10(120, 1), "lower", 0.1, "regression"},
		{"worse within the bound", series10(105, 1), "lower", 0.1, "no change"},
		{"spread wider than the bound", []float64{80, 130, 90, 120, 100, 85, 125, 95, 115, 105}, "lower", 0.1, "unresolved"},
		{"too few pairs for a gain", series10(90, 1)[:9], "lower", 0.1, "no change"},
	} {
		a := parent
		if len(tc.b) < len(a) {
			a = a[:len(tc.b)]
		}
		if got := judge(a, tc.b, tc.better, tc.bound); got.call != tc.want {
			t.Errorf("%s: %s (wins %d/%d), want %s", tc.name, got.call, got.wins, got.pairs, tc.want)
		}
	}
	// A wide spread still resolves when every run of the change beats every
	// run of the parent.
	wideA := []float64{100, 140, 110, 130, 120, 100, 140, 110, 130, 120}
	wideB := []float64{50, 70, 55, 65, 60, 50, 70, 55, 65, 60}
	if got := judge(wideA, wideB, "lower", 0.1); got.call != "gain" {
		t.Errorf("disjoint wide runs: %s, want gain", got.call)
	}
}

// BENCHMARK.json must describe exactly what the program reports, within the
// limits its format sets.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(raw))
	}
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		s := endToEndSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program reports %s %s %s", i, m.Name, m.Unit, m.Better, s.name, s.unit, s.better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerSpecs) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bf.PerLayer), len(perLayerSpecs))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		s := perLayerSpecs[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %s %s %s, program reports %s %s %s", i, m.Name, m.Unit, m.Better, s.name, s.unit, s.better)
		}
	}
}

func TestCompareReportsEachWorkload(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64, lat float64, digest string) *record {
		m := map[string]metric{}
		for _, s := range endToEndSpecs {
			m[s.name] = metric{Value: 10, Unit: s.unit}
		}
		m["latency_p50_ms"] = metric{Value: lat, Unit: "ms"}
		return &record{Workload: "fit-pokec", Seed: seed, Correct: true, Digest: digest, Metrics: m, CalibrationMS: [2]float64{100, 100}}
	}
	var a, b []*record
	for i := range 10 {
		a = append(a, mk(1, 100+float64(i%3), "d1"))
		b = append(b, mk(1, 80+float64(i%3), "d2"))
	}
	b[0].CalibrationMS = [2]float64{150, 150}
	b[1].CalibrationMS = [2]float64{150, 150}
	var out bytes.Buffer
	if err := compare(&out, bf, map[string][]*record{"fit-pokec": a}, map[string][]*record{"fit-pokec": b}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"fit-pokec: 10 vs 10 runs", "latency_p50_ms", "gain", "2 different output digests", "publish-tricycle: 0 vs 0 runs"} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output lacks %q:\n%s", want, got)
		}
	}
}
