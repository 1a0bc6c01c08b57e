package experiments

import (
	"math"
	"strings"
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// smallOpts keeps the experiment drivers fast enough for unit testing.
func smallOpts() Options {
	return Options{Scale: 0.12, Trials: 1, Seed: 3, SampleIterations: 1}
}

func TestCompareGraphsIdenticalGraphs(t *testing.T) {
	p, _ := datasets.ByName("lastfm")
	g := datasets.Generate(dp.NewRand(1), p.Scaled(0.2))
	m := CompareGraphs(g, g)
	if m.MREThetaF != 0 || m.HellingerThetaF != 0 || m.KSDegree != 0 || m.HellingerDegree != 0 ||
		m.MRETriangles != 0 || m.MREAvgClustering != 0 || m.MREGlobalClustering != 0 || m.MREEdges != 0 {
		t.Fatalf("identical graphs should have zero error, got %+v", m)
	}
}

func TestCompareGraphsDetectsStructureLoss(t *testing.T) {
	p, _ := datasets.ByName("lastfm")
	g := datasets.Generate(dp.NewRand(2), p.Scaled(0.2))
	// A star graph over the same nodes: no triangles, completely different
	// degree distribution.
	brokenB := graph.NewBuilder(g.NumNodes(), g.NumAttributes())
	for i := 1; i < brokenB.NumNodes(); i++ {
		brokenB.AddEdge(0, i)
	}
	broken := brokenB.Finalize()
	m := CompareGraphs(g, broken)
	if m.MRETriangles < 0.9 {
		t.Fatalf("triangle MRE = %v, want ≈ 1 for a triangle-free synthetic graph", m.MRETriangles)
	}
	if m.KSDegree < 0.3 {
		t.Fatalf("degree KS = %v, want large for a star graph", m.KSDegree)
	}
}

func TestAverageMetrics(t *testing.T) {
	avg := Average([]GraphMetrics{
		{MREThetaF: 0.2, KSDegree: 0.4},
		{MREThetaF: 0.4, KSDegree: 0.0},
	})
	if math.Abs(avg.MREThetaF-0.3) > 1e-12 || math.Abs(avg.KSDegree-0.2) > 1e-12 {
		t.Fatalf("average = %+v", avg)
	}
	if zero := Average(nil); zero.MREThetaF != 0 {
		t.Fatal("average of nothing should be zero value")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 3 || o.Seed != 1 || o.SampleIterations != 2 {
		t.Fatalf("defaults = %+v", o)
	}
	if _, err := (Options{}).profileFor("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	p, err := (Options{Scale: 0.1}).profileFor("pokec")
	if err != nil {
		t.Fatalf("profileFor: %v", err)
	}
	full, _ := datasets.ByName("pokec")
	if p.Nodes >= full.Nodes {
		t.Fatal("scale override not applied")
	}
}

func TestRunTableSmall(t *testing.T) {
	opts := smallOpts()
	opts.Epsilons = []float64{math.Log(3), 0.3}
	res, err := RunTable("lastfm", opts)
	if err != nil {
		t.Fatalf("RunTable: %v", err)
	}
	// 2 non-private rows + 2 models × 2 epsilons.
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	if res.Rows[0].Epsilon != 0 || res.Rows[1].Epsilon != 0 {
		t.Fatal("first two rows should be the non-private references")
	}
	// Larger epsilon rows come before smaller ones (privacy strengthens down
	// the table, as in the paper).
	if res.Rows[2].Epsilon < res.Rows[4].Epsilon {
		t.Fatal("epsilon rows not ordered from weakest to strongest privacy")
	}
	for _, row := range res.Rows {
		m := row.Metrics
		for _, v := range []float64{m.MREThetaF, m.HellingerThetaF, m.KSDegree, m.HellingerDegree, m.MREEdges} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %+v has invalid metric %v", row, v)
			}
		}
	}
	text := res.Format()
	if !strings.Contains(text, "Table 2") || !strings.Contains(text, "AGMDP-TriCL") {
		t.Fatalf("formatted table missing expected content:\n%s", text)
	}
}

func TestRunTableUnknownDataset(t *testing.T) {
	if _, err := RunTable("unknown", smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunTable6(t *testing.T) {
	rows, err := RunTable6(Options{Scale: 0.05, Trials: 1, Seed: 2})
	if err != nil {
		t.Fatalf("RunTable6: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Summary.Nodes == 0 || r.Summary.Edges == 0 {
			t.Fatalf("row %s has empty summary", r.Dataset)
		}
	}
	text := FormatTable6(rows)
	if !strings.Contains(text, "Table 6") || !strings.Contains(text, "pokec") {
		t.Fatalf("formatted Table 6 missing content:\n%s", text)
	}
}

func TestRunFigure1Small(t *testing.T) {
	points, err := RunFigure1([]string{"lastfm"}, smallOpts())
	if err != nil {
		t.Fatalf("RunFigure1: %v", err)
	}
	if len(points) != len(figureEpsilons) {
		t.Fatalf("got %d points, want %d", len(points), len(figureEpsilons))
	}
	for _, p := range points {
		if p.MAEBestK > p.MAEHeurK+1e-12 {
			t.Fatalf("best-k MAE %v exceeds heuristic-k MAE %v", p.MAEBestK, p.MAEHeurK)
		}
		if p.HeuristicK < 1 || p.BestK < 1 {
			t.Fatalf("invalid k values in %+v", p)
		}
	}
	if text := FormatFigure1(points); !strings.Contains(text, "Figure 1") {
		t.Fatal("FormatFigure1 missing header")
	}
}

func TestRunFigure23Small(t *testing.T) {
	res, err := RunFigure23("petster", smallOpts())
	if err != nil {
		t.Fatalf("RunFigure23: %v", err)
	}
	if len(res.Fits) != 3 {
		t.Fatalf("got %d model fits, want 3 (FCL, TCL, TriCycLe)", len(res.Fits))
	}
	if len(res.InputDegreeCCDF) == 0 || len(res.InputClusteringCCDF) == 0 {
		t.Fatal("input CCDFs missing")
	}
	byModel := map[string]StructuralFit{}
	for _, fit := range res.Fits {
		byModel[fit.Model] = fit
		if fit.DegreeKS < 0 || fit.DegreeKS > 1 {
			t.Fatalf("degree KS out of range: %+v", fit)
		}
		if len(fit.DegreeCCDF) == 0 {
			t.Fatalf("missing degree CCDF for %s", fit.Model)
		}
	}
	// The paper's headline qualitative finding (Figure 3): TriCycLe matches
	// the clustering structure better than FCL.
	if byModel["TriCycLe"].MRETriangles >= byModel["FCL"].MRETriangles {
		t.Fatalf("TriCycLe triangle error %v not below FCL %v",
			byModel["TriCycLe"].MRETriangles, byModel["FCL"].MRETriangles)
	}
	if text := res.Format(); !strings.Contains(text, "TriCycLe") {
		t.Fatal("Format missing TriCycLe row")
	}
}

func TestRunFigure5Small(t *testing.T) {
	points, err := RunFigure5([]string{"lastfm"}, smallOpts())
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if len(points) != len(figureEpsilons) {
		t.Fatalf("got %d points, want %d", len(points), len(figureEpsilons))
	}
	// Edge truncation should beat the naive Laplace baseline at every ε —
	// this is the headline comparison of Figure 5.
	for _, p := range points {
		if p.EdgeTruncation >= p.NaiveLaplace {
			t.Fatalf("EdgeTrunc MAE %v not below naive Laplace %v at eps=%v", p.EdgeTruncation, p.NaiveLaplace, p.Epsilon)
		}
	}
	if text := FormatFigure5(points); !strings.Contains(text, "Figure 5") {
		t.Fatal("FormatFigure5 missing header")
	}
}

func TestSampleAggGroupSize(t *testing.T) {
	if g := sampleAggGroupSize(100); g != 10 {
		t.Fatalf("group size for n=100 is %d, want 10", g)
	}
	if g := sampleAggGroupSize(2); g < 2 {
		t.Fatalf("group size %d below minimum", g)
	}
}

func TestTruncationCandidates(t *testing.T) {
	cands := truncationCandidates(12, 119)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, k := range cands {
		if k < 1 {
			t.Fatalf("candidate %d below 1", k)
		}
	}
}

func TestRunAblationBudgetSplit(t *testing.T) {
	res, err := RunAblationBudgetSplit("lastfm", math.Log(3), smallOpts())
	if err != nil {
		t.Fatalf("RunAblationBudgetSplit: %v", err)
	}
	if len(res.Splits) != 3 {
		t.Fatalf("got %d splits, want 3", len(res.Splits))
	}
	if _, ok := res.Splits["even (paper)"]; !ok {
		t.Fatal("missing the paper's even split")
	}
	if text := FormatBudgetSplit(res); !strings.Contains(text, "even (paper)") {
		t.Fatal("FormatBudgetSplit missing split label")
	}
}

func TestRunAblationConstrainedInference(t *testing.T) {
	res, err := RunAblationConstrainedInference("petster", 0.3, smallOpts())
	if err != nil {
		t.Fatalf("RunAblationConstrainedInference: %v", err)
	}
	if res.L1WithInference >= res.L1Naive {
		t.Fatalf("constrained inference error %v not below naive %v", res.L1WithInference, res.L1Naive)
	}
}

func TestRunAblationTriangleEstimators(t *testing.T) {
	res, err := RunAblationTriangleEstimators("lastfm", 0.5, smallOpts())
	if err != nil {
		t.Fatalf("RunAblationTriangleEstimators: %v", err)
	}
	if res.Truth <= 0 {
		t.Fatal("test graph has no triangles")
	}
	if res.LadderMRE >= res.NaiveMRE {
		t.Fatalf("Ladder MRE %v not below naive Laplace MRE %v", res.LadderMRE, res.NaiveMRE)
	}
}

func TestRunAblationPostProcess(t *testing.T) {
	res, err := RunAblationPostProcess("pokec", Options{Scale: 0.01, Trials: 1, Seed: 5})
	if err != nil {
		t.Fatalf("RunAblationPostProcess: %v", err)
	}
	if res.OrphansWith >= res.OrphansWithout {
		t.Fatalf("post-processing did not reduce orphans: with=%v without=%v", res.OrphansWith, res.OrphansWithout)
	}
}

func TestAblationsRejectUnknownDatasets(t *testing.T) {
	if _, err := RunAblationBudgetSplit("nope", 1, smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunAblationConstrainedInference("nope", 1, smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunAblationTriangleEstimators("nope", 1, smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunAblationPostProcess("nope", smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunFigure1([]string{"nope"}, smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunFigure5([]string{"nope"}, smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := RunFigure23("nope", smallOpts()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
