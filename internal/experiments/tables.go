package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"agmdp/internal/core"
	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/structural"
)

// Options configures an experiment run. The zero value selects the defaults
// documented on each field: each dataset at its profile's default scale, the
// paper's ε grid, and a small number of trials per setting so a full run
// completes in laptop time.
type Options struct {
	// Scale overrides the dataset's DefaultScale when positive.
	Scale float64
	// Trials is the number of synthetic graphs averaged per setting
	// (default 3; the paper uses 1000/100).
	Trials int
	// Epsilons overrides the dataset's privacy-budget grid when non-empty.
	Epsilons []float64
	// Seed selects the base random seed (default 1).
	Seed int64
	// SampleIterations is passed through to the AGM sampling step (default 2).
	SampleIterations int
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SampleIterations <= 0 {
		o.SampleIterations = 2
	}
	return o
}

// profileFor resolves and scales the dataset profile for a run.
func (o Options) profileFor(name string) (datasets.Profile, error) {
	p, err := datasets.ByName(name)
	if err != nil {
		return datasets.Profile{}, err
	}
	scale := o.Scale
	if scale <= 0 {
		scale = p.DefaultScale
	}
	if err := datasets.CheckScale(scale); err != nil {
		return datasets.Profile{}, err
	}
	return p.Scaled(scale), nil
}

// TableRow is one row of Tables 2–5: one (model, ε) setting on one dataset.
// Epsilon 0 denotes the non-private reference rows.
type TableRow struct {
	Dataset string
	Model   string
	Epsilon float64
	Metrics GraphMetrics
	Trials  int
}

// TableResult holds a full Table 2–5 reproduction for one dataset.
type TableResult struct {
	Dataset string
	// InputSummary records the achieved statistics of the generated input
	// graph (our stand-in for Table 6's row for this dataset).
	InputSummary graph.Summary
	Rows         []TableRow
}

// tableNumbers maps dataset names to the paper's table numbering.
var tableNumbers = map[string]int{
	"lastfm":   2,
	"petster":  3,
	"epinions": 4,
	"pokec":    5,
}

// RunTable reproduces Table 2, 3, 4 or 5 (selected by dataset name): it
// generates the calibrated input graph, synthesizes graphs with the
// non-private AGM-FCL and AGM-TriCL models and with AGMDP-FCL and
// AGMDP-TriCL at every ε in the grid, and reports the averaged error metrics.
func RunTable(datasetName string, opts Options) (*TableResult, error) {
	opts = opts.withDefaults()
	profile, err := opts.profileFor(datasetName)
	if err != nil {
		return nil, err
	}
	epsilons := opts.Epsilons
	if len(epsilons) == 0 {
		epsilons = profile.Epsilons
	}
	rng := dp.NewRand(opts.Seed)
	input := datasets.Generate(rng, profile)
	// Every cell compares against the same input: measure it once.
	measured := Measure(input)

	result := &TableResult{
		Dataset:      datasetName,
		InputSummary: measured.Summary,
	}

	models := []struct {
		label string
		model structural.Model
	}{
		{"FCL", structural.FCL{}},
		{"TriCL", structural.TriCycLe{}},
	}

	// Non-private reference rows (AGM-FCL, AGM-TriCL).
	for _, m := range models {
		metrics, err := averageNonPrivate(rng, input, measured, m.model, opts)
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, TableRow{
			Dataset: datasetName, Model: "AGM-" + m.label, Epsilon: 0,
			Metrics: metrics, Trials: opts.Trials,
		})
	}

	// Private rows for each ε, strongest privacy last (as in the paper).
	sorted := append([]float64(nil), epsilons...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	for _, eps := range sorted {
		for _, m := range models {
			metrics, err := averagePrivate(rng, input, measured, m.model, eps, opts)
			if err != nil {
				return nil, err
			}
			result.Rows = append(result.Rows, TableRow{
				Dataset: datasetName, Model: "AGMDP-" + m.label, Epsilon: eps,
				Metrics: metrics, Trials: opts.Trials,
			})
		}
	}
	return result, nil
}

// averageNonPrivate synthesizes opts.Trials graphs with the exact AGM
// parameters and averages their metrics against the measured input.
func averageNonPrivate(rng *rand.Rand, input *graph.Graph, measured Measurement, model structural.Model, opts Options) (GraphMetrics, error) {
	var all []GraphMetrics
	for trial := 0; trial < opts.Trials; trial++ {
		synth, _, err := core.SynthesizeNonPrivate(rng, input, model, core.SampleOptions{Iterations: opts.SampleIterations})
		if err != nil {
			return GraphMetrics{}, err
		}
		all = append(all, measured.Compare(Measure(synth)))
	}
	return Average(all), nil
}

// averagePrivate synthesizes opts.Trials graphs under ε-DP and averages
// their metrics against the measured input.
func averagePrivate(rng *rand.Rand, input *graph.Graph, measured Measurement, model structural.Model, epsilon float64, opts Options) (GraphMetrics, error) {
	var all []GraphMetrics
	for trial := 0; trial < opts.Trials; trial++ {
		synth, _, err := core.Synthesize(rng, input, core.Config{Epsilon: epsilon, Model: model},
			core.SampleOptions{Iterations: opts.SampleIterations})
		if err != nil {
			return GraphMetrics{}, err
		}
		all = append(all, measured.Compare(Measure(synth)))
	}
	return Average(all), nil
}

// Format renders the table in the layout of the paper's Tables 2–5.
func (r *TableResult) Format() string {
	var b strings.Builder
	num := tableNumbers[r.Dataset]
	fmt.Fprintf(&b, "Table %d — %s (n=%d, m=%d, n∆=%d, C̄=%.3f)\n",
		num, r.Dataset, r.InputSummary.Nodes, r.InputSummary.Edges,
		r.InputSummary.Triangles, r.InputSummary.AvgLocalClustering)
	fmt.Fprintf(&b, "%-12s %-14s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"epsilon", "model", "ThetaF", "H_ThetaF", "KS_S", "H_S", "n_tri", "C_avg", "C_glob", "m")
	for _, row := range r.Rows {
		eps := "non-private"
		if row.Epsilon > 0 {
			eps = fmt.Sprintf("%.4g", row.Epsilon)
		}
		m := row.Metrics
		fmt.Fprintf(&b, "%-12s %-14s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.4f\n",
			eps, row.Model, m.MREThetaF, m.HellingerThetaF, m.KSDegree, m.HellingerDegree,
			m.MRETriangles, m.MREAvgClustering, m.MREGlobalClustering, m.MREEdges)
	}
	return b.String()
}

// Table6Row is one row of Table 6: the headline statistics of a dataset.
type Table6Row struct {
	Dataset string
	Summary graph.Summary
	Target  datasets.Profile
}

// RunTable6 generates every dataset (at the run's scale) and reports the
// achieved dataset statistics next to the paper's targets.
func RunTable6(opts Options) ([]Table6Row, error) {
	opts = opts.withDefaults()
	var rows []Table6Row
	for _, p := range datasets.AllProfiles() {
		profile, err := opts.profileFor(p.Name)
		if err != nil {
			return nil, err
		}
		g := datasets.Generate(dp.NewRand(opts.Seed), profile)
		rows = append(rows, Table6Row{Dataset: p.Name, Summary: g.Summarize(), Target: profile})
	}
	return rows, nil
}

// FormatTable6 renders the dataset-property table.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 6 — dataset properties (generated stand-ins; targets in parentheses)")
	fmt.Fprintf(&b, "%-10s %14s %16s %12s %10s %14s %8s\n", "dataset", "n", "m", "dmax", "davg", "n_tri", "C_avg")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7d (%5d) %8d (%6d) %5d (%4d) %10.1f %14d %8.3f\n",
			r.Dataset, r.Summary.Nodes, r.Target.Nodes, r.Summary.Edges, r.Target.Edges,
			r.Summary.MaxDegree, r.Target.MaxDegree, r.Summary.AverageDegree,
			r.Summary.Triangles, r.Summary.AvgLocalClustering)
	}
	return b.String()
}
