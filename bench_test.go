package agmdp

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablation benchmarks for the design choices called
// out in DESIGN.md and micro-benchmarks for the heaviest primitives.
//
// Each experiment benchmark regenerates its table/figure through the drivers
// in internal/experiments at a reduced scale and trial count so that
// `go test -bench=. -benchmem` finishes in laptop time; run
// cmd/agmdp-experiments for full-scale reproductions. The formatted rows (the
// same rows/series the paper reports) are emitted through b.Logf, so run with
// `go test -bench=. -v` to see them inline.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/experiments"
	"agmdp/internal/structural"
	"agmdp/internal/triangles"
)

// benchOpts returns reduced-scale experiment options keyed by dataset size so
// every benchmark iteration stays in the seconds range.
func benchOpts(dataset string) experiments.Options {
	scale := 0.15
	switch dataset {
	case "epinions":
		scale = 0.05
	case "pokec":
		scale = 0.005
	}
	return experiments.Options{Scale: scale, Trials: 1, Seed: 1, SampleIterations: 1}
}

// benchmarkTable regenerates one of Tables 2–5.
func benchmarkTable(b *testing.B, dataset string) {
	b.Helper()
	opts := benchOpts(dataset)
	opts.Epsilons = []float64{math.Log(3), 0.2}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable(dataset, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Format())
		}
	}
}

// BenchmarkTable2_Lastfm regenerates Table 2 (Last.fm).
func BenchmarkTable2_Lastfm(b *testing.B) { benchmarkTable(b, "lastfm") }

// BenchmarkTable3_Petster regenerates Table 3 (Petster).
func BenchmarkTable3_Petster(b *testing.B) { benchmarkTable(b, "petster") }

// BenchmarkTable4_Epinions regenerates Table 4 (Epinions).
func BenchmarkTable4_Epinions(b *testing.B) { benchmarkTable(b, "epinions") }

// BenchmarkTable5_Pokec regenerates Table 5 (Pokec).
func BenchmarkTable5_Pokec(b *testing.B) { benchmarkTable(b, "pokec") }

// BenchmarkTable6_DatasetProperties regenerates the dataset-property table.
func BenchmarkTable6_DatasetProperties(b *testing.B) {
	opts := experiments.Options{Scale: 0.05, Trials: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable6(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable6(rows))
		}
	}
}

// BenchmarkFigure1_TruncationK regenerates Figure 1 (MAE of the truncated ΘF
// estimator with the best k vs the n^{1/3} heuristic).
func BenchmarkFigure1_TruncationK(b *testing.B) {
	opts := benchOpts("lastfm")
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunFigure1([]string{"lastfm", "petster"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFigure1(points))
		}
	}
}

// benchmarkFigure23 regenerates the Figure 2 (degree CCDF) and Figure 3
// (clustering CCDF) comparison of the structural models for one dataset.
func benchmarkFigure23(b *testing.B, dataset string) {
	b.Helper()
	opts := benchOpts(dataset)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure23(dataset, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Format())
		}
	}
}

// BenchmarkFigure2_DegreeCCDF regenerates the degree-distribution comparison
// (Figure 2); the same driver also produces the clustering CCDFs of Figure 3.
func BenchmarkFigure2_DegreeCCDF(b *testing.B) { benchmarkFigure23(b, "lastfm") }

// BenchmarkFigure3_ClusteringCCDF regenerates the clustering-coefficient
// comparison (Figure 3) on a second dataset.
func BenchmarkFigure3_ClusteringCCDF(b *testing.B) { benchmarkFigure23(b, "petster") }

// BenchmarkFigure5_CorrelationMethods regenerates Figure 5 (edge truncation vs
// smooth sensitivity vs sample-and-aggregate vs naive Laplace).
func BenchmarkFigure5_CorrelationMethods(b *testing.B) {
	opts := benchOpts("lastfm")
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunFigure5([]string{"lastfm"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFigure5(points))
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblation_BudgetSplit compares privacy-budget splits for
// AGMDP-TriCycLe.
func BenchmarkAblation_BudgetSplit(b *testing.B) {
	opts := benchOpts("lastfm")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationBudgetSplit("lastfm", math.Log(2), opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatBudgetSplit(res))
		}
	}
}

// BenchmarkAblation_ConstrainedInference compares the Hay et al. constrained
// inference degree-sequence estimator against raw Laplace noise.
func BenchmarkAblation_ConstrainedInference(b *testing.B) {
	opts := benchOpts("lastfm")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationConstrainedInference("lastfm", 0.3, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("constrained inference L1/node = %.3f, naive = %.3f", res.L1WithInference, res.L1Naive)
		}
	}
}

// BenchmarkAblation_TriangleEstimators compares the Ladder triangle estimator
// against the naive Laplace baseline.
func BenchmarkAblation_TriangleEstimators(b *testing.B) {
	opts := benchOpts("lastfm")
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationTriangleEstimators("lastfm", 0.5, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Ladder MRE = %.3f, naive Laplace MRE = %.3f (truth %d)", res.LadderMRE, res.NaiveMRE, res.Truth)
		}
	}
}

// BenchmarkAblation_PostProcess compares TriCycLe with and without the
// orphan-node post-processing extension (Algorithm 2).
func BenchmarkAblation_PostProcess(b *testing.B) {
	opts := experiments.Options{Scale: 0.01, Trials: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationPostProcess("pokec", opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("orphans with post-processing = %.1f, without = %.1f", res.OrphansWith, res.OrphansWithout)
		}
	}
}

// --- Micro-benchmarks for the heaviest primitives ---

// benchGraph builds a mid-sized calibrated graph once per benchmark.
func benchGraph(b *testing.B, name string, scale float64) *Graph {
	b.Helper()
	p, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return datasets.Generate(dp.NewRand(7), p.Scaled(scale))
}

// BenchmarkDatasetGeneration measures the calibrated dataset generator.
func BenchmarkDatasetGeneration(b *testing.B) {
	p, _ := datasets.ByName("lastfm")
	scaled := p.Scaled(0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		datasets.Generate(dp.NewRand(int64(i)), scaled)
	}
}

// BenchmarkTriangleCounting measures exact triangle counting.
func BenchmarkTriangleCounting(b *testing.B) {
	g := benchGraph(b, "lastfm", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Triangles() == 0 {
			b.Fatal("no triangles")
		}
	}
}

// BenchmarkLadderTriangleCount measures the private (Ladder) triangle count.
func BenchmarkLadderTriangleCount(b *testing.B) {
	g := benchGraph(b, "lastfm", 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triangles.PrivateCount(dp.NewRand(int64(i)), g, 0.5)
	}
}

// BenchmarkEdgeTruncation measures the µ(G, k) projection.
func BenchmarkEdgeTruncation(b *testing.B) {
	g := benchGraph(b, "lastfm", 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Truncate(12)
	}
}

// BenchmarkTriCycLeGeneration measures one TriCycLe graph generation.
func BenchmarkTriCycLeGeneration(b *testing.B) {
	g := benchGraph(b, "lastfm", 0.5)
	params := structural.Params{Degrees: g.DegreeSequence(), Triangles: g.Triangles()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		structural.TriCycLe{}.Generate(dp.NewRand(int64(i)), g.NumNodes(), params, nil).Finalize()
	}
}

// BenchmarkFCLGeneration measures one FCL graph generation.
func BenchmarkFCLGeneration(b *testing.B) {
	g := benchGraph(b, "lastfm", 0.5)
	params := structural.Params{Degrees: g.DegreeSequence()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		structural.FCL{}.Generate(dp.NewRand(int64(i)), g.NumNodes(), params, nil).Finalize()
	}
}

// --- Synthesis-service benchmarks (concurrent sampling engine) ---

// engineBenchFixture fits a non-private FCL model on a ≥50k-node calibrated
// pokec sample, shared across the engine benchmarks (fitting is the expensive
// step being amortised — exactly the serving scenario the engine targets).
var (
	engineBenchOnce  sync.Once
	engineBenchFit   *FittedModel
	engineBenchNodes int
)

func engineBenchModel(b *testing.B) *FittedModel {
	b.Helper()
	engineBenchOnce.Do(func() {
		p, err := datasets.ByName("pokec")
		if err != nil {
			panic(err)
		}
		g := datasets.Generate(dp.NewRand(7), p.Scaled(0.1))
		engineBenchNodes = g.NumNodes()
		m, err := FitNonPrivate(g, ModelFCL)
		if err != nil {
			panic(err)
		}
		engineBenchFit = m
	})
	if engineBenchNodes < 50000 {
		b.Fatalf("benchmark dataset has %d nodes, want ≥ 50000", engineBenchNodes)
	}
	return engineBenchFit
}

// benchmarkEngineSample measures throughput of a batch of concurrent sampling
// jobs on an engine with the given worker count. Before timing it records the
// engine's determinism contract: same seed + same worker count ⇒ identical
// output graph. The multi-worker speedup over the 1-worker baseline is
// proportional to the cores available; on a GOMAXPROCS=1 machine the runs
// coincide (modulo scheduling overhead) by construction.
func benchmarkEngineSample(b *testing.B, workers int) {
	b.Helper()
	m := engineBenchModel(b)
	e := NewEngine(EngineConfig{Workers: workers, Seed: 1})
	defer e.Close()
	ctx := context.Background()

	g1, err := e.Sample(ctx, SampleRequest{Model: m, Seed: 42, Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	g2, err := e.Sample(ctx, SampleRequest{Model: m, Seed: 42, Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	if !g1.Equal(g2) {
		b.Fatalf("determinism violated at %d workers: same seed gave different graphs", workers)
	}

	const batch = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, batch)
		for j := 0; j < batch; j++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				_, err := e.Sample(ctx, SampleRequest{Model: m, Seed: seed, Iterations: 1})
				errs <- err
			}(int64(i*batch+j) + 1)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(batch), "graphs/op")
}

// BenchmarkEngineSample1Worker is the single-worker baseline.
func BenchmarkEngineSample1Worker(b *testing.B) { benchmarkEngineSample(b, 1) }

// BenchmarkEngineSample4Workers samples the same batch on four workers.
func BenchmarkEngineSample4Workers(b *testing.B) { benchmarkEngineSample(b, 4) }

// BenchmarkEngineSampleMaxWorkers uses one worker per available core.
func BenchmarkEngineSampleMaxWorkers(b *testing.B) {
	benchmarkEngineSample(b, runtime.GOMAXPROCS(0))
}

// BenchmarkParallelEdgeSampling measures intra-job parallelism: one Chung–Lu
// generation on the ≥50k-node degree sequence with 1 vs N proposal streams.
func BenchmarkParallelEdgeSampling(b *testing.B) {
	m := engineBenchModel(b)
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, streams := range counts {
		b.Run("streams="+strconv.Itoa(streams), func(b *testing.B) {
			model := structural.FCL{Parallelism: streams}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := model.Generate(rand.New(rand.NewSource(int64(i)+1)), m.N, m.Structural, nil).Finalize()
				if g.NumEdges() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkSynthesizeEndToEnd measures the full AGM-DP pipeline on a small
// input (the paper reports ≈85 minutes for full-scale Pokec in Python;
// Appendix C.4).
func BenchmarkSynthesizeEndToEnd(b *testing.B) {
	g := benchGraph(b, "lastfm", 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Synthesize(g, Options{Epsilon: 1, Seed: int64(i) + 1, SampleIterations: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
