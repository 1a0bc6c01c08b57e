// Package agmdp is the public facade of the AGM-DP library, a Go
// implementation of "Publishing Attributed Social Graphs with Formal Privacy
// Guarantees" (Jorgensen, Yu, Cormode; SIGMOD 2016).
//
// The library synthesizes attributed social graphs that mimic the structure
// (degree distribution, triangle count, clustering) and the attribute–edge
// correlations (homophily) of a sensitive input graph while satisfying
// ε-differential privacy under the edge-adjacency model of Definition 1 (two
// graphs are neighbours if they differ in one edge or in the attribute vector
// of one node).
//
// Typical usage:
//
//	g := agmdp.NewGraph(n, 2)            // build or load the sensitive graph
//	...
//	out, model, err := agmdp.Synthesize(g, agmdp.Options{Epsilon: 1.0, Seed: 7})
//	// out is a synthetic attributed graph safe to publish under ε = 1.0.
//
// The facade re-exports the attributed graph type, dataset generators,
// evaluation metrics and the experiment drivers; the full lower-level API
// lives in the internal packages and is exercised by the examples under
// examples/ and the benchmark harness in bench_test.go.
package agmdp

import (
	"context"

	"agmdp/internal/attrs"
	"agmdp/internal/core"
	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/experiments"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/parallel"
	"agmdp/internal/registry"
	"agmdp/internal/structural"
)

// Graph is an attributed, undirected simple graph in immutable
// compressed-sparse-row form. A Graph never changes after construction and is
// safe for unrestricted concurrent use; build or modify graphs through a
// GraphBuilder and finalize it into a Graph.
type Graph = graph.Graph

// GraphBuilder is the mutable construction phase of a Graph: add or remove
// edges and set attributes, then call Finalize to freeze the result into an
// immutable CSR Graph.
type GraphBuilder = graph.Builder

// AttrVector is a node's binary attribute vector, stored as a bitmask.
type AttrVector = graph.AttrVector

// Summary bundles the headline statistics of a graph (Table 6 of the paper).
type Summary = graph.Summary

// FittedModel holds learned AGM parameters (exact or differentially private).
type FittedModel = core.FittedModel

// Metrics holds the error columns used by the paper's evaluation tables.
type Metrics = experiments.GraphMetrics

// DatasetProfile describes one of the calibrated synthetic dataset
// generators standing in for the paper's real datasets.
type DatasetProfile = datasets.Profile

// NewGraph returns an empty attributed graph with n nodes and w binary
// attributes per node.
func NewGraph(n, w int) *Graph { return graph.New(n, w) }

// NewGraphBuilder returns a mutable builder for a graph with n nodes and w
// binary attributes per node; call Finalize to obtain the immutable Graph.
func NewGraphBuilder(n, w int) *GraphBuilder { return graph.NewBuilder(n, w) }

// LoadGraph reads an attributed graph from a file in the library's
// self-describing text format (see SaveGraph).
func LoadGraph(path string) (*Graph, error) { return graph.LoadGraph(path) }

// SaveGraph writes an attributed graph to a file in the library's
// self-describing text format.
func SaveGraph(g *Graph, path string) error { return graph.SaveGraph(g, path) }

// LoadEdgeList reads a plain whitespace-separated edge list (without
// attributes) from a file. A node ID the int32 ID space cannot hold is an
// error, not an allocation.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// SaveGraphBinary writes an attributed graph to a file as a binary CSR
// snapshot — the compact, canonical format the graph store and the service's
// binary wire format use. Binary snapshots encode and decode an order of
// magnitude faster than the text format on large graphs.
func SaveGraphBinary(g *Graph, path string) error { return graph.SaveBinary(g, path) }

// LoadGraphBinary reads a graph from a binary CSR snapshot file, fully
// validating the structural invariants before returning it.
func LoadGraphBinary(path string) (*Graph, error) { return graph.LoadBinary(path) }

// ModelKind selects the structural model used by Fit/Synthesize.
type ModelKind string

// Supported structural models.
const (
	// ModelTriCycLe is the paper's new structural model (Algorithm 1); it is
	// the default and reproduces both the degree distribution and the
	// clustering of the input.
	ModelTriCycLe ModelKind = "tricycle"
	// ModelFCL is the simple (bias-corrected) Fast Chung–Lu model; it matches
	// the degree distribution only.
	ModelFCL ModelKind = "fcl"
)

// structuralModel maps a ModelKind to its implementation through the shared
// resolver, carrying the requested parallelism (≤ 0 = auto, 1 = sequential).
func structuralModel(kind ModelKind, parallelism int) (structural.Model, error) {
	return structural.ByName(string(kind), parallelism)
}

// SetParallelism sets the process-wide default worker count used by every
// parallel code path in the library — the sharded graph analytics, the fit's
// measurement passes and sensitivity scans, and the structural generators'
// Chung–Lu proposal streams when Options.Parallelism is ≤ 0. It is the only
// setting for the analytics and the fit. Values ≤ 0 restore the built-in
// default of runtime.GOMAXPROCS(0);
// 1 forces every auto-resolved path sequential, which makes generator output
// byte-for-byte reproducible across machines with different core counts.
//
// Analytics (triangle counts, clustering, degree statistics) are bit-identical
// for every worker count; only the generators' random draws depend on the
// resolved count (same seed + same count ⇒ same graph).
func SetParallelism(n int) { parallel.SetParallelism(n) }

// Options configures Fit and Synthesize.
type Options struct {
	// Epsilon is the total differential-privacy budget ε. It must be positive
	// for private synthesis; use the Non-Private variants for ε = ∞ baselines.
	Epsilon float64
	// Model selects the structural model (default ModelTriCycLe).
	Model ModelKind
	// TruncationK overrides the edge-truncation parameter used when learning
	// the attribute–edge correlations; zero selects the paper's heuristic
	// k = n^{1/3}.
	TruncationK int
	// SampleIterations is the number of acceptance-probability refinement
	// rounds in the synthesis step (default 3).
	SampleIterations int
	// Seed seeds the deterministic random source used for both fitting and
	// sampling. Runs with equal seeds and inputs are reproducible.
	//
	// Anyone who knows the seed of a private fit can replay its Laplace
	// draws and subtract them from the released parameters, which voids the
	// privacy guarantee: keep the seed of a published model secret. Nor is a
	// seed a secret key: math/rand has fewer than 2^31 streams, few enough
	// to try them all.
	Seed int64
	// Parallelism is the number of concurrent streams used by the structural
	// generators: ≤ 0 means "auto" (the process default, see SetParallelism),
	// 1 forces sequential execution. Sampling output is deterministic per
	// (Seed, resolved worker count) pair. The fitting pipeline's measurement
	// passes run on the process default, and fitted models are bit-identical
	// for every worker count.
	Parallelism int
}

// Fit learns ε-differentially private AGM parameters from the sensitive graph
// g without sampling a synthetic graph. The returned model can be stored and
// used to sample any number of synthetic graphs with Sample at no additional
// privacy cost.
func Fit(g *Graph, opts Options) (*FittedModel, error) {
	model, err := structuralModel(opts.Model, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	rng := dp.NewRand(opts.Seed)
	return core.FitDP(context.Background(), rng, g, core.Config{
		Epsilon:     opts.Epsilon,
		TruncationK: opts.TruncationK,
		Model:       model,
	})
}

// FitNonPrivate learns exact AGM parameters (no privacy), the baseline the
// paper calls AGM-FCL / AGM-TriCL.
func FitNonPrivate(g *Graph, kind ModelKind) (*FittedModel, error) {
	// Baselines pin sequential generation (parallelism 1) so the paper's
	// reference points are byte-reproducible across machines; use Options
	// with Sample/Synthesize when baseline throughput matters more. The
	// fitting measurements themselves still run at the process default —
	// they are bit-identical for every worker count.
	model, err := structuralModel(kind, 1)
	if err != nil {
		return nil, err
	}
	return core.Fit(g, model), nil
}

// Sample draws one synthetic attributed graph from a fitted model. By the
// post-processing property of differential privacy this consumes no
// additional privacy budget.
func Sample(m *FittedModel, opts Options) (*Graph, error) {
	model, err := structuralModel(opts.Model, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	rng := dp.NewRand(opts.Seed)
	return core.Sample(rng, m, core.SampleOptions{Iterations: opts.SampleIterations, Model: model})
}

// Synthesize runs the complete AGM-DP pipeline (Algorithm 3 of the paper):
// it learns private model parameters from g under the budget opts.Epsilon and
// samples one synthetic graph. The synthetic graph and the fitted model are
// returned; the fitted model can be reused with Sample to draw more graphs.
func Synthesize(g *Graph, opts Options) (*Graph, *FittedModel, error) {
	model, err := structuralModel(opts.Model, opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	rng := dp.NewRand(opts.Seed)
	return core.Synthesize(rng, g, core.Config{
		Epsilon:     opts.Epsilon,
		TruncationK: opts.TruncationK,
		Model:       model,
	}, core.SampleOptions{Iterations: opts.SampleIterations, Model: model})
}

// SynthesizeNonPrivate runs the original (non-private) AGM workflow, used as
// the reference point in the paper's tables. It pins sequential generation
// (parallelism 1) so the reference output is byte-reproducible for a given
// seed on every machine, whatever its core count.
func SynthesizeNonPrivate(g *Graph, kind ModelKind, seed int64) (*Graph, *FittedModel, error) {
	model, err := structuralModel(kind, 1)
	if err != nil {
		return nil, nil, err
	}
	rng := dp.NewRand(seed)
	return core.SynthesizeNonPrivate(rng, g, model, core.SampleOptions{})
}

// Evaluate compares a synthetic graph against the original input and returns
// the error metrics used throughout the paper's evaluation (Tables 2–5).
func Evaluate(original, synthetic *Graph) Metrics {
	return experiments.CompareGraphs(original, synthetic)
}

// AttributeDistribution returns the exact node-attribute distribution ΘX of a
// graph.
func AttributeDistribution(g *Graph) []float64 { return attrs.TrueThetaX(g) }

// CorrelationDistribution returns the exact attribute–edge correlation
// distribution ΘF of a graph.
func CorrelationDistribution(g *Graph) []float64 { return attrs.TrueThetaF(g) }

// --- Synthesis service: model serialization, registry and engine ---

// Registry is a thread-safe, content-addressed store of fitted models with
// optional on-disk persistence; see NewRegistry.
type Registry = registry.Registry

// RegistryOptions configures NewRegistry.
type RegistryOptions = registry.Options

// ModelInfo summarises one stored model in registry listings.
type ModelInfo = registry.Info

// NewRegistry opens a model registry. With a non-empty Dir the registry
// persists models to disk and reloads them on the next open, so expensive DP
// fits survive process restarts.
func NewRegistry(opts RegistryOptions) (*Registry, error) { return registry.Open(opts) }

// GraphStore is a thread-safe, content-addressed store of immutable graphs
// with optional on-disk persistence as binary CSR snapshots; see
// NewGraphStore.
type GraphStore = graphstore.Store

// GraphStoreOptions configures NewGraphStore.
type GraphStoreOptions = graphstore.Options

// GraphInfo summarises one stored graph in graph-store listings.
type GraphInfo = graphstore.Info

// NewGraphStore opens a graph store. With a non-empty Dir every stored graph
// is persisted as a <id>.csr binary snapshot and reloaded on the next open,
// so uploaded graphs survive service restarts.
func NewGraphStore(opts GraphStoreOptions) (*GraphStore, error) { return graphstore.Open(opts) }

// Engine samples fitted models concurrently, running at most
// EngineConfig.Workers draws at once; see NewEngine.
type Engine = engine.Engine

// EngineConfig configures NewEngine.
type EngineConfig = engine.Config

// SampleRequest describes one engine draw.
type SampleRequest = engine.Request

// NewEngine builds a concurrent synthesis engine. Close it to refuse new
// samples and wait for the ones it already admitted.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// MarshalModel encodes a fitted model into its canonical, versioned JSON
// form, suitable for storage or transport.
func MarshalModel(m *FittedModel) ([]byte, error) { return core.MarshalModel(m) }

// UnmarshalModel decodes and validates a model encoded by MarshalModel.
func UnmarshalModel(data []byte) (*FittedModel, error) { return core.UnmarshalModel(data) }

// ModelID returns the content-addressed identifier of a fitted model (equal
// parameters always hash to equal IDs).
func ModelID(m *FittedModel) (string, error) { return core.ModelID(m) }

// Datasets returns the calibrated synthetic dataset profiles standing in for
// the paper's four real-world social networks.
func Datasets() []DatasetProfile { return datasets.AllProfiles() }

// GenerateDataset builds one synthetic dataset by name ("lastfm", "petster",
// "epinions", "pokec") at the given scale (0 < scale ≤ 1; zero selects the
// profile's default scale) with a deterministic seed. Scales outside (0, 1]
// are rejected with an error, the same validation the HTTP service applies.
func GenerateDataset(name string, scale float64, seed int64) (*Graph, error) {
	p, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = p.DefaultScale
	}
	if err := datasets.CheckScale(scale); err != nil {
		return nil, err
	}
	return datasets.Generate(dp.NewRand(seed), p.Scaled(scale)), nil
}
