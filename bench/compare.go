package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json at the repository root that
// compare reads: the workloads, and each metric with its unit, direction and
// regression bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// calibrationDrift is the host-speed change between the two sides beyond
// which compare warns that host noise may pass for a change's effect.
const calibrationDrift = 0.10

// verdict is compare's reading of one metric on one workload.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	call           string // gain, regression, unresolved, no change
}

// judge applies the comparison rule: pair run i of A (the parent) with run i
// of B (the change). B gains when it wins at least nine tenths of at least
// minPairs pairs (ties count for neither) and the medians differ by more
// than A's own interquartile distance. B regresses when its median is worse
// than A's by more than bound (a share of A's median). Where either side's
// spread exceeds the bound the metric is unresolved, unless every run of B
// beats every run of A.
func judge(a, b []float64, better string, bound float64) verdict {
	v := verdict{pairs: min(len(a), len(b))}
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(b)
	beats := func(x, y float64) bool {
		if better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.pairs; i++ {
		if beats(b[i], a[i]) {
			v.wins++
		}
	}
	allBeat := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBeat = allBeat && beats(x, y)
		}
	}
	worse := (v.medB - v.medA) / math.Abs(v.medA)
	if better == "higher" {
		worse = -worse
	}
	wide := spread(a) > bound || spread(b) > bound
	gain := v.pairs >= minPairs && 10*v.wins >= 9*v.pairs &&
		beats(v.medB, v.medA) && math.Abs(v.medB-v.medA) > v.q3A-v.q1A
	switch {
	case wide && !(allBeat && v.pairs >= minPairs):
		v.call = "unresolved"
	case gain || (wide && allBeat):
		v.call = "gain"
	case worse > bound:
		v.call = "regression"
	default:
		v.call = "no change"
	}
	return v
}

// loadRecords reads every run record (*.json) in dir, grouped by workload
// and ordered by file name, which is the order pairs are formed in.
func loadRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]*record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("%s: not a run record", p)
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	return out, nil
}

func compareCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if fs.NArg() != 2 {
		return usageError("compare needs two directories of run records: the parent's, then the change's")
	}
	bf, err := loadBenchmark(*benchPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(stdout, bf, a, b)
}

func compare(w io.Writer, bf *benchmarkFile, a, b map[string][]*record) error {
	counts := map[string]int{}
	for _, wl := range bf.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%s: %d vs %d runs, nothing to compare\n", wl.Name, len(ra), len(rb))
			continue
		}
		calA, calB := median(calibrations(ra)), median(calibrations(rb))
		fmt.Fprintf(w, "%s: %d vs %d runs; calibration %.1f vs %.1f ms", wl.Name, len(ra), len(rb), calA, calB)
		if d := calB/calA - 1; math.Abs(d) > calibrationDrift {
			fmt.Fprintf(w, "  WARNING: host speed drifted %+.1f%%, beyond %.0f%%", 100*d, 100*calibrationDrift)
		}
		fmt.Fprintln(w)
		for _, note := range digestNotes(ra, rb) {
			fmt.Fprintf(w, "  %s\n", note)
		}
		for side, rs := range map[string][]*record{"A": ra, "B": rb} {
			for _, r := range rs {
				if !r.Correct {
					fmt.Fprintf(w, "  side %s seed %d: %d of %d checks failed\n", side, r.Seed, r.Failed, r.Attempted)
				}
			}
		}
		fmt.Fprintf(w, "  %-24s %30s %30s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
		traced := ra[0].Trace
		for _, m := range bf.EndToEnd {
			if traced {
				break
			}
			va, vb := values(ra, m.Name), values(rb, m.Name)
			v := judge(va, vb, m.Better, m.Bound)
			counts[v.call]++
			fmt.Fprintf(w, "  %-24s %30s %30s %3d/%-3d  %s (bound %g)\n", m.Name,
				fmtQ(v.medA, v.q1A, v.q3A), fmtQ(v.medB, v.q1B, v.q3B), v.wins, v.pairs, v.call, m.Bound)
		}
		for _, m := range bf.PerLayer {
			if !traced {
				break
			}
			va, vb := values(ra, m.Name), values(rb, m.Name)
			q1A, medA, q3A := quartiles(va)
			q1B, medB, q3B := quartiles(vb)
			fmt.Fprintf(w, "  %-24s %30s %30s\n", m.Name, fmtQ(medA, q1A, q3A), fmtQ(medB, q1B, q3B))
		}
	}
	fmt.Fprintf(w, "summary: %d gain, %d regression, %d unresolved, %d no change\n",
		counts["gain"], counts["regression"], counts["unresolved"], counts["no change"])
	return nil
}

func values(rs []*record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func calibrations(rs []*record) []float64 {
	out := make([]float64, 0, 2*len(rs))
	for _, r := range rs {
		out = append(out, r.CalibrationMS[0], r.CalibrationMS[1])
	}
	return out
}

// digestNotes reports seeds whose output digests differ, within a side or
// between the sides.
func digestNotes(a, b []*record) []string {
	seen := map[int64]map[string]bool{}
	for _, r := range append(append([]*record(nil), a...), b...) {
		if seen[r.Seed] == nil {
			seen[r.Seed] = map[string]bool{}
		}
		seen[r.Seed][r.Digest] = true
	}
	var notes []string
	for seed, ds := range seen {
		if len(ds) > 1 {
			notes = append(notes, fmt.Sprintf("seed %d: %d different output digests (outputs changed)", seed, len(ds)))
		}
	}
	sort.Strings(notes)
	return notes
}

func fmtQ(med, q1, q3 float64) string {
	return fmt.Sprintf("%s [%s, %s]", num(med), num(q1), num(q3))
}

func num(x float64) string {
	s := fmt.Sprintf("%.4g", x)
	return strings.TrimSpace(s)
}
