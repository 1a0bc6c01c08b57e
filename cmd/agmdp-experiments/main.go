// Command agmdp-experiments reproduces the tables and figures of the paper's
// evaluation section on the calibrated synthetic datasets.
//
// Usage:
//
//	agmdp-experiments -exp table2            # Last.fm table
//	agmdp-experiments -exp table5 -scale 0.02 -trials 2
//	agmdp-experiments -exp fig5 -datasets lastfm,petster
//	agmdp-experiments -exp all
//
// Experiments: table2, table3, table4, table5, table6, fig1, fig2 (= fig3),
// fig5, ablations, all. Scales, trial counts and seeds are configurable; the
// defaults are chosen so that a full run finishes in laptop time: each
// dataset at its profile's default scale, the paper's ε grid, 3 trials per
// setting and seed 1 (see the flags below and experiments.Options).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"agmdp/internal/experiments"
)

var tableDatasets = map[string]string{
	"table2": "lastfm",
	"table3": "petster",
	"table4": "epinions",
	"table5": "pokec",
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table2..table6, fig1, fig2, fig3, fig5, ablations, all")
		scale    = flag.Float64("scale", 0, "dataset scale override in (0, 1]; 0 = per-dataset default")
		trials   = flag.Int("trials", 3, "synthetic graphs averaged per setting")
		seed     = flag.Int64("seed", 1, "base random seed")
		datasets = flag.String("datasets", "", "comma-separated dataset filter for fig1/fig5 (default: all)")
	)
	flag.Parse()

	opts := experiments.Options{Scale: *scale, Trials: *trials, Seed: *seed}
	var filter []string
	if *datasets != "" {
		filter = strings.Split(*datasets, ",")
	}

	run := func(name string) {
		if err := runExperiment(name, opts, filter); err != nil {
			fmt.Fprintf(os.Stderr, "agmdp-experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	switch *exp {
	case "all":
		for _, name := range []string{"table6", "fig1", "fig2", "fig5", "table2", "table3", "table4", "table5", "ablations"} {
			run(name)
		}
	default:
		run(*exp)
	}
}

func runExperiment(name string, opts experiments.Options, filter []string) error {
	switch name {
	case "table2", "table3", "table4", "table5":
		res, err := experiments.RunTable(tableDatasets[name], opts)
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
	case "table6":
		rows, err := experiments.RunTable6(opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable6(rows))
	case "fig1":
		points, err := experiments.RunFigure1(filter, opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure1(points))
	case "fig2", "fig3":
		names := filter
		if len(names) == 0 {
			names = []string{"lastfm", "petster", "epinions", "pokec"}
		}
		for _, ds := range names {
			res, err := experiments.RunFigure23(ds, opts)
			if err != nil {
				return err
			}
			fmt.Println(res.Format())
		}
	case "fig5":
		points, err := experiments.RunFigure5(filter, opts)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure5(points))
	case "ablations":
		return runAblations(opts)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func runAblations(opts experiments.Options) error {
	budget, err := experiments.RunAblationBudgetSplit("lastfm", math.Log(2), opts)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatBudgetSplit(budget))

	ci, err := experiments.RunAblationConstrainedInference("lastfm", 0.3, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation — constrained inference on %s at eps=%.3g: L1/node with=%.3f, naive=%.3f\n\n",
		ci.Dataset, ci.Epsilon, ci.L1WithInference, ci.L1Naive)

	tri, err := experiments.RunAblationTriangleEstimators("lastfm", 0.5, opts)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation — triangle estimators on %s at eps=%.3g (truth %d): Ladder MRE=%.3f, naive Laplace MRE=%.3f\n\n",
		tri.Dataset, tri.Epsilon, tri.Truth, tri.LadderMRE, tri.NaiveMRE)

	pp, err := experiments.RunAblationPostProcess("pokec", experiments.Options{Scale: 0.02, Trials: opts.Trials, Seed: opts.Seed})
	if err != nil {
		return err
	}
	fmt.Printf("Ablation — TriCycLe orphan post-processing on %s: orphans with=%.1f, without=%.1f (edges %.0f vs %.0f)\n",
		pp.Dataset, pp.OrphansWith, pp.OrphansWithout, pp.EdgesWith, pp.EdgesWithout)
	return nil
}
