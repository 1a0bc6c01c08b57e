package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload end to end at tiny sizes, once
// untraced and once traced, against a freshly built agmdp-serve, and checks
// that each run is correct and ends with a well-formed result line.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	server := filepath.Join(dir, "agmdp-serve")
	build := exec.Command("go", "build", "-o", server, "./cmd/agmdp-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building agmdp-serve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: w.name, seed: 1, seconds: 0.6, trace: traced,
				out: filepath.Join(dir, "run.json"), server: server, work: dir, sizes: tinySizes,
			}
			var stdout bytes.Buffer
			rec, err := run(context.Background(), o, &stdout)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, stdout.String())
			}
			if !rec.Correct {
				t.Errorf("%s trace=%v: failures %v", w.name, traced, rec.Failures)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || len(res) != 4 {
				t.Fatalf("%s: last line is not the result object: %q", w.name, lines[len(lines)-1])
			}
			var metrics map[string]metric
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			specs := endToEndSpecs
			if traced {
				specs = perLayerSpecs
			}
			if len(metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s: metric %s missing or not in %s", w.name, s.name, s.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, m.Value)
				}
			}
			if traced && rec.Extra["coverage_pct"] < 90 {
				t.Errorf("%s: layer spans cover %.1f%% of op time, want ≥ 90%%", w.name, rec.Extra["coverage_pct"])
			}
		}
	}
}
