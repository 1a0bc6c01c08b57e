// Command agmdp-bench is the repository benchmark: it runs one workload of
// the AGM-DP pipeline — the library's fit → sample → encode path, or a real
// agmdp-serve process under load — for a fixed time, checks every output,
// and prints the end-to-end metrics (or, traced, the per-layer breakdown)
// with the last line of standard output one JSON result object.
//
// Usage, from the repository root (bench/run.sh builds both binaries first):
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out run.json] [--spans spans.jsonl]
//	bash bench/run.sh compare [--benchmark BENCHMARK.json] A/ B/
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// usageError marks command-line mistakes; main exits 2 for them.
type usageError string

func (e usageError) Error() string { return string(e) }

// errIncorrect reports a run whose output checks failed; the result line
// has already been printed.
var errIncorrect = errors.New("output checks failed")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := dispatch(ctx, os.Args[1:], os.Stdout)
	stop()
	var uerr usageError
	switch {
	case err == nil:
	case errors.As(err, &uerr):
		fmt.Fprintf(os.Stderr, "agmdp-bench: %v\n", err)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "agmdp-bench: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout)
	}
	o, err := parseRun(args)
	if err != nil {
		return err
	}
	rec, err := run(ctx, o, stdout)
	if err != nil {
		return err
	}
	if !rec.Correct {
		return errIncorrect
	}
	return nil
}

func parseRun(args []string) (options, error) {
	fs := flag.NewFlagSet("agmdp-bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: publish-tricycle, fit-pokec, serve-sample or serve-mixed")
		seed    = fs.Int64("seed", 1, "workload seed; every input derives from it")
		seconds = fs.Float64("seconds", 20, "length of the timed window")
		trace   = fs.Int("trace", 0, "1 = report per-layer metrics from a traced half of the window")
		out     = fs.String("out", "", "write the full run record as JSON to this file")
		spans   = fs.String("spans", "", "write the traced spans as JSON lines to this file")
		server  = fs.String("server", "", "agmdp-serve binary (default: next to this binary)")
		work    = fs.String("work", ".bench_build/work", "directory for server state")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, usageError(err.Error())
	}
	if fs.NArg() > 0 {
		return options{}, usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	if _, ok := findWorkload(*name); !ok {
		return options{}, usageError(fmt.Sprintf("unknown -workload %q", *name))
	}
	if *seconds <= 0 {
		return options{}, usageError("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, usageError("-trace must be 0 or 1")
	}
	if *server == "" {
		exe, err := os.Executable()
		if err != nil {
			return options{}, err
		}
		*server = filepath.Join(filepath.Dir(exe), "agmdp-serve")
	}
	return options{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: *out, spans: *spans, server: *server, work: *work, sizes: fullSizes,
	}, nil
}
