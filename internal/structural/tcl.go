package structural

import (
	"math/rand"

	"agmdp/internal/graph"
)

// TCL is the Transitive Chung–Lu model of Pfeiffer, La Fond, Moreno and
// Neville (2012). It refines a Chung–Lu seed graph by repeatedly replacing the
// oldest edge with either a transitive edge (a node connected to one of its
// two-hop neighbours, closing at least one triangle) with probability Rho, or
// another Chung–Lu edge with probability 1−Rho. The paper uses TCL as the
// closest prior structural model to compare TriCycLe against (Figures 2–3);
// its ρ parameter is fitted by expectation–maximisation, which is why it is
// hard to make differentially private.
type TCL struct{}

// Name implements Model.
func (TCL) Name() string { return "TCL" }

// Generate implements Model: the TCL seed-and-replace loop. params.Rho is
// the transitive closure probability; params.Degrees the target degree
// sequence.
func (TCL) Generate(rng *rand.Rand, n int, params Params, filter *EdgeFilter) *graph.Builder {
	if err := params.Validate(n); err != nil {
		panic(err)
	}
	sampler := NewNodeSampler(params.Degrees, nil)
	target := sumDegrees(params.Degrees) / 2
	b := generateCLBuilder(rng, n, sampler, target, filter, 1)
	if b.NumEdges() == 0 {
		return b
	}

	// FIFO of edges in insertion order; the head is the oldest edge.
	queue := newEdgeQueue(b)
	replacements := b.NumEdges() // replace every seed edge once, as in the TCL paper
	maxProposals := maxProposalFactor * (replacements + 1)
	for done, proposals := 0, 0; done < replacements && proposals < maxProposals; proposals++ {
		vi := sampler.Sample(rng)
		var vj int
		if rng.Float64() < params.Rho {
			vj = sampleTwoHop(rng, b, vi)
			if vj < 0 {
				continue
			}
		} else {
			vj = sampler.Sample(rng)
		}
		if vi == vj || b.HasEdge(vi, vj) {
			continue
		}
		if !acceptEdge(rng, filter, vi, vj) {
			continue
		}
		oldest, ok := queue.popOldest(b)
		if !ok {
			break
		}
		b.RemoveEdge(oldest.U, oldest.V)
		b.AddEdge(vi, vj)
		queue.push(graph.Edge{U: vi, V: vj})
		done++
	}
	return b
}

// sampleTwoHop picks a uniformly random neighbour k of vi and then a uniformly
// random neighbour of k (a "friend of a friend") in the live builder shared by
// the TCL and TriCycLe rewiring loops. It returns -1 when vi has no usable
// two-hop neighbour.
func sampleTwoHop(rng *rand.Rand, b *graph.Builder, vi int) int {
	ni := b.NeighborsView(vi)
	if len(ni) == 0 {
		return -1
	}
	vk := int(ni[rng.Intn(len(ni))])
	nk := b.NeighborsView(vk)
	if len(nk) == 0 {
		return -1
	}
	return int(nk[rng.Intn(len(nk))])
}

// edgeQueue is a FIFO over the current edge set used to track edge age in the
// TCL and TriCycLe generators. Entries may be stale (already removed from the
// builder); popOldest skips them.
type edgeQueue struct {
	items []graph.Edge
	head  int
}

func newEdgeQueue(b *graph.Builder) *edgeQueue {
	q := &edgeQueue{items: b.Edges()}
	return q
}

func (q *edgeQueue) push(e graph.Edge) {
	q.items = append(q.items, e.Canonical())
}

// popOldest returns the oldest edge that still exists in b.
func (q *edgeQueue) popOldest(b *graph.Builder) (graph.Edge, bool) {
	for q.head < len(q.items) {
		e := q.items[q.head]
		q.head++
		if b.HasEdge(e.U, e.V) {
			return e, true
		}
	}
	return graph.Edge{}, false
}

// FitRho estimates the TCL transitive-closure probability ρ from an input
// graph by expectation–maximisation. For each observed edge {i, j} the latent
// variable indicates whether the edge was produced by the transitive step or
// the Chung–Lu step; under the generative process the per-proposal
// probabilities are
//
//	P_tri(i,j) = (1/m)·Σ_{k ∈ Γ(i)∩Γ(j)} 1/d_k
//	P_cl(i,j)  = d_i·d_j / (2m²)
//
// and the E-step responsibility is ρ·P_tri / (ρ·P_tri + (1−ρ)·P_cl), whose
// mean over edges is the M-step update. The iteration is monotone and
// converges in a handful of rounds; iterations caps the number of rounds.
func FitRho(g *graph.Graph, iterations int) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	if iterations <= 0 {
		iterations = 25
	}
	type edgeStat struct{ pTri, pCL float64 }
	stats := make([]edgeStat, 0, g.NumEdges())
	degs := g.Degrees()
	g.ForEachEdge(func(u, v int) bool {
		// Common neighbours of u and v via a sorted-merge of the CSR rows;
		// k ≠ u, v automatically because the graph has no self loops.
		var inv float64
		ru, rv := g.NeighborsView(u), g.NeighborsView(v)
		i, j := 0, 0
		for i < len(ru) && j < len(rv) {
			a, c := ru[i], rv[j]
			if a == c {
				if d := degs[a]; d > 0 {
					inv += 1 / float64(d)
				}
				i++
				j++
			} else if a < c {
				i++
			} else {
				j++
			}
		}
		pTri := inv / m
		pCL := float64(degs[u]) * float64(degs[v]) / (2 * m * m)
		stats = append(stats, edgeStat{pTri: pTri, pCL: pCL})
		return true
	})
	rho := 0.5
	for iter := 0; iter < iterations; iter++ {
		var sum float64
		for _, s := range stats {
			num := rho * s.pTri
			den := num + (1-rho)*s.pCL
			if den > 0 {
				sum += num / den
			}
		}
		next := sum / m
		if next < 0 {
			next = 0
		}
		if next > 1 {
			next = 1
		}
		if diff := next - rho; diff < 1e-9 && diff > -1e-9 {
			rho = next
			break
		}
		rho = next
	}
	return rho
}
