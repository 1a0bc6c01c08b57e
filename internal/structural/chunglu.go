package structural

import (
	"math/rand"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// maxProposalFactor bounds how many edge proposals a generator will make as a
// multiple of the target edge count before giving up. The Chung–Lu seed
// draws filtered edges directly, so its rejections are only self-loops and
// duplicates; TCL's replacement loop and TriCycLe's rewiring also lose
// proposals to the AGM acceptance filter. The cap keeps the generators total
// even when the target cannot be met.
const maxProposalFactor = 60

// minParallelEdges is the edge-count threshold below which GenerateCL runs
// its sequential loop whatever the worker count: for small targets the
// fan-out and merge overhead exceeds the sampling work itself.
const minParallelEdges = parallel.MinShardEdges

// FCL is the (bias-corrected) Fast Chung–Lu structural model: it generates a
// graph whose expected degree sequence matches the target degrees but makes no
// attempt to reproduce clustering. It is the simple structural model the paper
// evaluates as AGM-FCL / AGMDP-FCL.
//
// The zero value proposes edges from the process-default number of concurrent
// streams (see GenerateCL and parallel.Resolve); output remains deterministic
// for a fixed (seed, resolved worker count) pair.
type FCL struct {
	// Parallelism is the number of concurrent edge-proposal streams: ≤ 0
	// means "auto" (the process default, runtime.GOMAXPROCS unless overridden
	// with parallel.SetParallelism), 1 forces the sequential generator.
	Parallelism int
}

// Name implements Model.
func (FCL) Name() string { return "FCL" }

// Generate implements Model: the Chung–Lu proposal loop of GenerateCL with
// the full target edge count.
func (f FCL) Generate(rng *rand.Rand, n int, params Params, filter *EdgeFilter) *graph.Builder {
	if err := params.Validate(n); err != nil {
		panic(err)
	}
	sampler := NewNodeSampler(params.Degrees, nil)
	target := sumDegrees(params.Degrees) / 2
	return generateCLBuilder(rng, n, sampler, target, filter, f.Parallelism)
}

// GenerateCL samples a Chung–Lu graph with the given number of edges over n
// nodes, drawing both endpoints of every edge from the π distribution encoded
// by sampler. Proposals that are self-loops or duplicates are discarded and
// re-drawn (the bias-corrected FCL variant, cFCL, which re-samples rather
// than skipping so the realised edge count matches the target). Generation
// stops early if the proposal budget is exhausted, which happens only when
// the target asks for nearly every pair the distribution can give.
//
// A filter does not reject proposals: since its acceptance depends only on
// the endpoints' classes, every proposal is drawn from the accepted mass at
// once — a class pair by its accepted π mass, then one endpoint from each
// class (see pairSampler). Each edge thus has the distribution the paper's
// accept/reject loop gives it, ∝ π_u·π_v·A(u, v) over the valid pairs, from
// fewer draws. A filter under which every pair weighs zero yields no edges.
//
// Edges are proposed from `workers` concurrent streams (parallel.Do);
// workers ≤ 0 means "auto" (the process default, runtime.GOMAXPROCS unless
// overridden with parallel.SetParallelism), and 1 — like any target under
// minParallelEdges — runs one sequential loop on rng.
// The output depends only on (rng state, n, sampler, targetEdges, filter,
// resolved workers): the same seed with the same worker count always
// reproduces the same graph, while different worker counts are different,
// equally valid draws from the model.
//
// Both paths collect their proposals with one loop (proposeEdges), which
// deduplicates in a flat hash set, and pack them once: graph.PackEdges
// builds the sorted builder rows from the edge lists in O(n + m). The rows
// hold the edge set that adding the edges one at a time would give, so the
// sequential path equals an AddEdge loop over the same draws.
//
// The multi-stream merge stays deterministic despite concurrent execution:
// worker i draws from its own rand.Rand seeded by the i-th value taken from
// the parent rng up front and collects its edges into a private list.
// PackEdges drops the cross-worker duplicates, and a sequential top-up pass
// (addCLEdges, with its own pre-drawn seed) then fills the shortfall they
// caused. The streams share the sampler, the filter and the pair sampler
// built from them, none of which a generator modifies.
func GenerateCL(rng *rand.Rand, n int, sampler *NodeSampler, targetEdges int, filter *EdgeFilter, workers int) *graph.Graph {
	return generateCLBuilder(rng, n, sampler, targetEdges, filter, workers).Finalize()
}

// generateCLBuilder is GenerateCL without the final freeze: the TCL and
// TriCycLe generators keep rewiring the result, so they take the still-mutable
// Builder and finalize once at the very end.
func generateCLBuilder(rng *rand.Rand, n int, sampler *NodeSampler, targetEdges int, filter *EdgeFilter, workers int) *graph.Builder {
	if sampler.Empty() || targetEdges <= 0 {
		return graph.NewBuilder(n, 0)
	}
	pairs := newPairSampler(sampler, filter)
	if pairs.empty() {
		return graph.NewBuilder(n, 0)
	}
	workers = parallel.Resolve(workers)
	if workers <= 1 || targetEdges < minParallelEdges {
		return graph.PackEdges(n, proposeEdges(rng, pairs, targetEdges))
	}

	lists, topUpSeed := proposeEdgesParallel(rng, pairs, targetEdges, workers)
	b := graph.PackEdges(n, lists...)
	// Top-up: cross-worker duplicates leave the merged rows slightly short of
	// the target; finish sequentially with the same proposal budget per edge
	// as the sequential loop.
	if b.NumEdges() < targetEdges {
		addCLEdges(rand.New(rand.NewSource(topUpSeed)), b, pairs, targetEdges)
	}
	return b
}

// addCLEdges is the multi-stream seed's top-up: it proposes edges into b,
// one AddEdge at a time, until b holds targetEdges edges or the proposal
// budget for the missing ones is exhausted. Only the few edges that
// cross-stream duplicates cost are drawn this way.
func addCLEdges(rng *rand.Rand, b *graph.Builder, pairs *pairSampler, targetEdges int) {
	maxProposals := maxProposalFactor * (targetEdges - b.NumEdges() + 1)
	for proposals := 0; b.NumEdges() < targetEdges && proposals < maxProposals; proposals++ {
		u, v := pairs.sample(rng)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		b.AddEdge(u, v)
	}
}

// proposeEdgesParallel fans the proposal loop out over `workers` calls of
// parallel.Do and returns their edge lists in worker order (still containing
// cross-worker duplicates) plus the pre-drawn seed for the sequential top-up
// pass.
func proposeEdgesParallel(rng *rand.Rand, pairs *pairSampler, targetEdges int, workers int) ([][]graph.Edge, int64) {
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
		results[w] = proposeEdges(rand.New(rand.NewSource(seeds[w])), pairs, shards[w].Len())
	})
	return results, topUpSeed
}

// proposeEdges runs one proposal loop, the sequential seed's or one
// stream's: Chung–Lu endpoint draws with self-loops and duplicate proposals
// discarded, until `target` edges are collected or the proposal budget runs
// out. It returns the edges in canonical form, in the order drawn. A stream
// deduplicates only against its own edges; cross-stream duplicates are
// handled at merge time.
func proposeEdges(rng *rand.Rand, pairs *pairSampler, target int) []graph.Edge {
	edges := make([]graph.Edge, 0, target)
	seen := newEdgeSet(target)
	maxProposals := maxProposalFactor * (target + 1)
	for proposals := 0; len(edges) < target && proposals < maxProposals; proposals++ {
		u, v := pairs.sample(rng)
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		if seen.add(uint64(e.U)<<32 | uint64(e.V)) {
			edges = append(edges, e)
		}
	}
	return edges
}

// edgeSet is the set of edges one proposal loop has collected, each
// canonical edge packed as the key U<<32 | V. It is a flat open-addressed
// table probed linearly, sized once for the loop's target with at least
// 1.5 slots per edge. A zero slot is empty: no canonical edge packs to 0,
// since V > U ≥ 0.
type edgeSet struct {
	slots []uint64 // a power of two of them
	shift uint     // 64 − log2(len(slots)): a key's home slot is its hash's top bits
}

// newEdgeSet returns an empty set with room for n edges.
func newEdgeSet(n int) *edgeSet {
	s := &edgeSet{shift: 64}
	for size := 1; ; size <<= 1 {
		if 2*size >= 3*n {
			s.slots = make([]uint64, size)
			return s
		}
		s.shift--
	}
}

// home returns the slot key's probe starts at: the top bits of a Fibonacci
// hash, which mixes both endpoints into them.
func (s *edgeSet) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> s.shift) }

// add inserts key and reports whether it was absent. Callers add at most
// the number of keys the set was sized for.
func (s *edgeSet) add(key uint64) bool {
	mask := len(s.slots) - 1
	for i := s.home(key); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return true
		case key:
			return false
		}
	}
}

// sumDegrees returns the sum of a degree sequence.
func sumDegrees(degrees []int) int {
	total := 0
	for _, d := range degrees {
		total += d
	}
	return total
}
