// Command agmdp-synth synthesizes a differentially private attributed graph
// from a sensitive input graph, implementing the end-to-end AGM-DP workflow
// (Algorithm 3 of Jorgensen, Yu, Cormode; SIGMOD 2016).
//
// Usage:
//
//	agmdp-synth -in graph.txt -out synthetic.txt -epsilon 1.0 [-model tricycle|fcl] [-k 0] [-seed 1]
//
// The input must be in the library's attributed-graph text format (see
// agmdp.SaveGraph); use agmdp-datagen to produce calibrated synthetic inputs.
//
// -seed (default 1) seeds the fit's noise as well as the sampling, so runs
// are reproducible per seed. Anyone who knows the seed can replay the
// Laplace draws and subtract them from the released parameters, which voids
// the privacy guarantee: choose a seed nobody else knows, and keep it
// secret. Nor is a seed a secret key: math/rand has fewer than 2^31 streams,
// few enough to try them all.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"agmdp"
)

// usageError marks command-line usage problems; main exits 2 for them (as
// flag.ExitOnError did before the testable-run refactor). An empty message
// means the FlagSet already reported the problem.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		var uerr usageError
		if errors.As(err, &uerr) {
			if uerr != "" {
				fmt.Fprintf(os.Stderr, "agmdp-synth: %s\n", string(uerr))
			}
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "agmdp-synth: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI with the given arguments, writing reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("agmdp-synth", flag.ContinueOnError)
	var (
		inPath     = fs.String("in", "", "path to the sensitive input graph (agmdp graph format)")
		outPath    = fs.String("out", "", "path to write the synthetic graph to (default: stdout summary only)")
		epsilon    = fs.Float64("epsilon", 1.0, "total differential-privacy budget ε (0 = non-private AGM)")
		model      = fs.String("model", "tricycle", "structural model: tricycle or fcl")
		truncation = fs.Int("k", 0, "edge-truncation parameter for ΘF (0 = n^(1/3) heuristic)")
		seed       = fs.Int64("seed", 1, "random seed (runs are reproducible per seed); whoever knows it can remove the fit's noise, so keep it secret")
		iterations = fs.Int("iterations", 3, "acceptance-probability refinement rounds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already printed the parse error and usage.
		return usageError("")
	}

	if *inPath == "" {
		fs.Usage()
		return usageError("-in is required")
	}
	input, err := agmdp.LoadGraph(*inPath)
	if err != nil {
		return err
	}

	var (
		synth  *agmdp.Graph
		fitted *agmdp.FittedModel
	)
	if *epsilon > 0 {
		synth, fitted, err = agmdp.Synthesize(input, agmdp.Options{
			Epsilon:          *epsilon,
			Model:            agmdp.ModelKind(*model),
			TruncationK:      *truncation,
			SampleIterations: *iterations,
			Seed:             *seed,
		})
	} else {
		synth, fitted, err = agmdp.SynthesizeNonPrivate(input, agmdp.ModelKind(*model), *seed)
	}
	if err != nil {
		return err
	}

	metrics := agmdp.Evaluate(input, synth)
	fmt.Fprintf(stdout, "input:     %d nodes, %d edges, %d triangles\n", input.NumNodes(), input.NumEdges(), input.Triangles())
	fmt.Fprintf(stdout, "synthetic: %d nodes, %d edges, %d triangles (model %s, epsilon %.4g)\n",
		synth.NumNodes(), synth.NumEdges(), synth.Triangles(), fitted.ModelName, fitted.Epsilon)
	fmt.Fprintf(stdout, "errors:    ThetaF MAE %.4f, ThetaF Hellinger %.4f, degree KS %.4f, degree Hellinger %.4f\n",
		metrics.MREThetaF, metrics.HellingerThetaF, metrics.KSDegree, metrics.HellingerDegree)
	fmt.Fprintf(stdout, "           triangles MRE %.4f, avg clustering MRE %.4f, edges MRE %.4f\n",
		metrics.MRETriangles, metrics.MREAvgClustering, metrics.MREEdges)

	if *outPath != "" {
		if err := agmdp.SaveGraph(synth, *outPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote synthetic graph to %s\n", *outPath)
	}
	return nil
}
