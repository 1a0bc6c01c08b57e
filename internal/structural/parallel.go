package structural

import (
	"math/rand"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// minParallelEdges is the edge-count threshold below which the parallel
// generators (seed sampling and TriCycLe rewiring alike) fall back to their
// sequential paths: for small targets the fan-out and merge overhead exceeds
// the sampling work itself.
const minParallelEdges = parallel.MinShardEdges

// GenerateCLParallel samples a Chung–Lu graph like GenerateCL but proposes
// edges from `workers` concurrent streams on the shared pool
// (internal/parallel); workers ≤ 0 means "auto" (the process default,
// runtime.GOMAXPROCS unless overridden with parallel.SetParallelism) and 1
// forces the sequential generator. Determinism is preserved in a slightly
// weaker but well-defined form: the output depends only on (rng state, n,
// sampler, targetEdges, filter, resolved workers) — the same seed with the
// same worker count always reproduces the same graph, while different worker
// counts are different (equally valid) draws from the model.
//
// The construction keeps the merge deterministic despite concurrent
// execution: worker i draws from its own rand.Rand seeded by the i-th value
// taken from the parent rng up front and collects its accepted edges into a
// private list. The lists are packed into builder rows in worker order with
// Builder.AddEdge, which drops cross-worker duplicates. A sequential top-up
// pass (with its own pre-drawn seed) then fills any shortfall those
// duplicates caused.
//
// When the resolved worker count exceeds 1 the filter may be called from
// multiple goroutines concurrently and must be safe for concurrent use; the
// filters built by the AGM-DP sampler only read shared slices, so they
// qualify.
func GenerateCLParallel(rng *rand.Rand, n int, sampler *NodeSampler, targetEdges int, filter EdgeFilter, workers int) *graph.Graph {
	workers = parallel.Resolve(workers)
	if workers <= 1 || targetEdges < minParallelEdges {
		return GenerateCL(rng, n, sampler, targetEdges, filter)
	}
	return generateCLParallelBuilder(rng, n, sampler, targetEdges, filter, workers).Finalize()
}

// generateCLParallelBuilder is the still-mutable variant of GenerateCLParallel
// used by generators that keep rewiring the seed graph (TriCycLe). The worker
// edge lists are added to one builder with Builder.AddEdge, as the sequential
// generator adds its edges, and the top-up pass mutates those rows in place —
// no intermediate edge list or graph copy.
func generateCLParallelBuilder(rng *rand.Rand, n int, sampler *NodeSampler, targetEdges int, filter EdgeFilter, workers int) *graph.Builder {
	workers = parallel.Resolve(workers)
	if workers <= 1 || targetEdges < minParallelEdges {
		return generateCLBuilder(rng, n, sampler, targetEdges, filter)
	}
	if sampler.Empty() || targetEdges <= 0 {
		return graph.NewBuilder(n, 0)
	}

	lists, topUpSeed := proposeEdgesParallel(rng, sampler, targetEdges, filter, workers)
	b := graph.NewBuilder(n, 0)
	for _, edges := range lists {
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
	}

	// Top-up: cross-worker duplicates leave the merged rows slightly short of
	// the target; finish sequentially with the same proposal budget per edge
	// as the sequential generator.
	if b.NumEdges() < targetEdges {
		topUp(rand.New(rand.NewSource(topUpSeed)), b, sampler, targetEdges, filter)
	}
	return b
}

// proposeEdgesParallel fans the proposal loop out over `workers` tasks on the
// shared pool and returns their edge lists in worker order (still containing
// cross-worker duplicates) plus the pre-drawn seed for the sequential top-up
// pass.
func proposeEdgesParallel(rng *rand.Rand, sampler *NodeSampler, targetEdges int, filter EdgeFilter, workers int) ([][]graph.Edge, int64) {
	// Draw every seed before any task starts so the parent rng is consumed
	// identically regardless of scheduling.
	seeds := make([]int64, workers)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	topUpSeed := rng.Int63()

	// Partition the edge target across workers; the first target%workers
	// shards carry one extra edge.
	shards := parallel.Split(targetEdges, workers)
	results := make([][]graph.Edge, len(shards))
	parallel.Do(len(shards), func(w int) {
		results[w] = proposeEdges(rand.New(rand.NewSource(seeds[w])), sampler, shards[w].Len(), filter)
	})
	return results, topUpSeed
}

// proposeEdges runs one worker's proposal loop: Chung–Lu endpoint draws with
// self-loops, locally duplicate proposals and filter rejections discarded,
// until `target` edges are collected or the proposal budget runs out. The
// worker deduplicates only against its own accepted edges; cross-worker
// duplicates are handled at merge time.
func proposeEdges(rng *rand.Rand, sampler *NodeSampler, target int, filter EdgeFilter) []graph.Edge {
	edges := make([]graph.Edge, 0, target)
	seen := make(map[uint64]struct{}, target) // canonical edge packed as U<<32 | V
	maxProposals := maxProposalFactor * (target + 1)
	if filter != nil {
		maxProposals *= 8
	}
	for proposals := 0; len(edges) < target && proposals < maxProposals; proposals++ {
		u := sampler.Sample(rng)
		v := sampler.Sample(rng)
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		key := uint64(e.U)<<32 | uint64(e.V)
		if _, dup := seen[key]; dup {
			continue
		}
		if !acceptEdge(rng, filter, u, v) {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, e)
	}
	return edges
}

// topUp sequentially proposes edges into b until it reaches targetEdges or the
// proposal budget is exhausted, mirroring the GenerateCL loop.
func topUp(rng *rand.Rand, b *graph.Builder, sampler *NodeSampler, targetEdges int, filter EdgeFilter) {
	maxProposals := maxProposalFactor * (targetEdges - b.NumEdges() + 1)
	if filter != nil {
		maxProposals *= 8
	}
	for proposals := 0; b.NumEdges() < targetEdges && proposals < maxProposals; proposals++ {
		u := sampler.Sample(rng)
		v := sampler.Sample(rng)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		if !acceptEdge(rng, filter, u, v) {
			continue
		}
		b.AddEdge(u, v)
	}
}
