package structural

import (
	"math/rand"
	"time"

	"agmdp/internal/graph"
	"agmdp/internal/obs"
)

// Phase timings for TriCycLe generation, on the process-wide default
// registry. Of the four steps of one Generate call, the seed histogram times
// the first two: the Chung–Lu seed graph and the orphan repair applied to
// it. The rewire histogram times the third, triangle rewiring. The final
// orphan repair after rewiring is in neither; it counts only toward the
// caller's total. Only the wall clock is read — no RNG draws are added or
// reordered, so generated graphs are byte-identical with and without a
// scraper attached.
var (
	tricycleSeedDur = obs.Default().Histogram("agmdp_structural_seed_duration_seconds",
		"Wall-clock duration of TriCycLe's Chung-Lu seed graph plus the orphan repair applied to it.")
	tricycleRewireDur = obs.Default().Histogram("agmdp_structural_rewire_duration_seconds",
		"Wall-clock duration of TriCycLe's triangle rewiring, excluding the orphan repair that follows it.")
)

// TriCycLe is the structural model introduced by the paper (Algorithm 1). It
// starts from a Chung–Lu seed graph matching the target degree sequence and
// iteratively rewires edges to create triangles: each step proposes a
// transitive edge (a "friend of a friend" link), deletes the oldest edge to
// preserve the expected degree sequence, and keeps the replacement only if it
// does not decrease the running triangle count. Rewiring stops when the
// target triangle count n∆ is reached.
//
// The zero value enables the orphan-node extension (Algorithm 2): degree-one
// nodes are excluded from the π distribution and wired up in a post-processing
// pass applied to both the seed graph and the final graph, which removes the
// large number of disconnected nodes plain Chung–Lu models produce.
type TriCycLe struct {
	// DisablePostProcess turns off the orphan-node extension; used by the
	// ablation benchmarks.
	DisablePostProcess bool
	// Parallelism is the number of concurrent streams that draw the Chung–Lu
	// seed graph (see GenerateCL); rewiring is always the paper's one
	// sequential loop, as in FCL only the edge proposals fan out. Values ≤ 0
	// mean "auto" (the process default, runtime.GOMAXPROCS by default); 1
	// forces sequential generation. Output is deterministic for a fixed
	// (seed, resolved worker count) pair, and the worker count reaches it
	// only through the seed: a seed target under minParallelEdges edges is
	// drawn sequentially at every worker count.
	Parallelism int
}

// Name implements Model.
func (t TriCycLe) Name() string { return "TriCycLe" }

// Generate implements Model: the full TriCycLe pipeline — seed, orphan
// post-processing, triangle rewiring, second post-processing.
// params.Degrees is the target degree sequence assigned positionally to
// nodes, params.Triangles the target triangle count.
func (t TriCycLe) Generate(rng *rand.Rand, n int, params Params, filter *EdgeFilter) *graph.Builder {
	if err := params.Validate(n); err != nil {
		panic(err)
	}
	postProcess := !t.DisablePostProcess

	degrees := params.Degrees
	totalEdges := sumDegrees(degrees) / 2

	// Orphan extension: exclude degree-one nodes from π and hold back one seed
	// edge per degree-one node; the post-processing pass wires them up.
	var excluded func(int) bool
	degreeOne := 0
	if postProcess {
		for _, d := range degrees {
			if d == 1 {
				degreeOne++
			}
		}
		excluded = func(i int) bool { return degrees[i] == 1 }
	}
	sampler := NewNodeSampler(degrees, excluded)
	seedTarget := totalEdges - degreeOne
	if seedTarget < 0 {
		seedTarget = 0
	}

	seedStart := time.Now()
	b := generateCLBuilder(rng, n, sampler, seedTarget, filter, t.Parallelism)
	if postProcess {
		PostProcessGraph(rng, b, sampler, degrees, filter)
	}
	tricycleSeedDur.ObserveDuration(time.Since(seedStart))
	if b.NumEdges() == 0 || sampler.Empty() {
		return b
	}

	rewireStart := time.Now()
	rewireSequential(rng, b, sampler, filter, params.Triangles)
	tricycleRewireDur.ObserveDuration(time.Since(rewireStart))

	if postProcess {
		PostProcessGraph(rng, b, sampler, degrees, filter)
	}
	return b
}

// rewireSequential is the paper's single-stream rewiring loop (Algorithm 1,
// lines 5–13): propose a transitive edge, delete the oldest edge, keep the
// replacement only if the triangle count does not decrease.
func rewireSequential(rng *rand.Rand, b *graph.Builder, sampler *NodeSampler, filter *EdgeFilter, target int64) {
	queue := newEdgeQueue(b)
	tau := b.Triangles()
	// Proposal budget: enough to rewire every edge several times plus extra
	// headroom proportional to the number of triangles still missing. A stall
	// counter additionally aborts the loop when the triangle count has stopped
	// improving, so unreachable targets terminate quickly.
	missing := target - tau
	if missing < 0 {
		missing = 0
	}
	maxProposals := maxProposalFactor*(b.NumEdges()+1) + int(50*missing)
	stallLimit := 20*(b.NumEdges()+1) + 20000
	stalled := 0
	for proposals := 0; tau < target && proposals < maxProposals && stalled < stallLimit; proposals++ {
		stalled++
		vi := sampler.Sample(rng)
		vj := sampleTwoHop(rng, b, vi)
		if vj < 0 || vi == vj || b.HasEdge(vi, vj) {
			continue
		}
		// AGM-DP integration (footnote 4): the acceptance probabilities apply
		// to the transitive proposals as well as to the seed edges.
		if !acceptEdge(rng, filter, vi, vj) {
			continue
		}
		oldest, ok := queue.popOldest(b)
		if !ok {
			break
		}
		cnOld := b.CommonNeighbors(oldest.U, oldest.V)
		b.RemoveEdge(oldest.U, oldest.V)
		cnNew := b.CommonNeighbors(vi, vj)
		if cnNew >= cnOld {
			b.AddEdge(vi, vj)
			queue.push(graph.Edge{U: vi, V: vj})
			tau += int64(cnNew - cnOld)
			if cnNew > cnOld {
				stalled = 0
			}
		} else {
			// Undo the deletion; the restored edge becomes the youngest so the
			// loop cannot immediately pick it again and stall.
			b.AddEdge(oldest.U, oldest.V)
			queue.push(oldest)
		}
	}
}
