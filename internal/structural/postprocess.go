package structural

import (
	"math"
	"math/rand"
	"slices"

	"agmdp/internal/graph"
)

// PostProcessGraph implements Algorithm 2 of the paper: it repairs orphaned
// nodes (nodes outside the main connected component) by deleting their stray
// edges and reconnecting them to nodes in the rest of the graph whose desired
// degree has not yet been met, while keeping the total edge count at the value
// implied by the desired degree sequence. The builder is modified in place;
// callers finalize it into an immutable CSR graph when generation is done.
//
// desired holds the target degree of every node (the original input graph's
// degree sequence in AGM-DP); sampler is the π distribution used to pick the
// attachment points. Attachment preferences follow the paper: nodes are drawn
// from π until one with unmet desired degree is found; a bounded number of
// attempts guards against the (rare) situation where no such node exists, in
// which case a uniformly random non-orphan node is used instead. The loop is
// capped so that pathological inputs (for example a desired degree sequence
// whose sum implies fewer than n−1 edges, which no connected graph can
// satisfy) cannot spin forever.
//
// filter, when non-nil, is treated as a soft preference: candidate attachment
// points that the filter accepts are tried first, but connectivity repair
// falls back to ignoring the filter rather than leaving the node orphaned.
//
// Each round draws its orphan from the list g.OrphanedNodes() gives: every
// node outside the main component, in ascending order, where main is the
// largest component and a size tie goes to the component holding the
// smallest node ID. Only the first round computes the list from scratch.
// After it, an orphanTracker updates the list at each edge the pass adds or
// removes, at the cost of the components that edge touches rather than
// O(n + m) per round. Each update keeps main a component that rule picks:
//
//   - an edge added inside main changes no component;
//   - an edge added between main and another component merges that
//     component into main, which then outsizes every other component;
//   - an edge removed outside main splits a component no larger than main
//     into strictly smaller pieces;
//   - an edge removed inside main either leaves main connected or cuts off a
//     piece; a search from both endpoints at once tells which, in time
//     proportional to the smaller side;
//   - an edge added between two other components merges them.
//
// The last two can unseat main: what remains of it, or the merged
// component, may not be the largest. A component holding more than n/2
// nodes is the unique largest, whatever the tie rule, so those updates are
// made only while more than n/2 nodes stay in main. Otherwise the next
// round recomputes the list with g.OrphanedNodes(). Every round thus draws
// from the list a per-round recomputation would give, and the rng draws and
// the repaired graph are the same.
func PostProcessGraph(rng *rand.Rand, g *graph.Builder, sampler *NodeSampler, desired []int, filter *EdgeFilter) {
	n := g.NumNodes()
	if n == 0 || len(desired) != n {
		return
	}
	targetEdges := sumDegrees(desired) / 2
	maxRounds := 4*n + 100
	const maxSampleAttempts = 200

	tr := newOrphanTracker(g)
	for round := 0; round < maxRounds; round++ {
		orphans := tr.current(g)
		if len(orphans) == 0 {
			return
		}
		vi := orphans[rng.Intn(len(orphans))]
		// Remove any edges the orphan currently has (they can only reach other
		// orphans).
		for nb := g.NeighborsView(vi); len(nb) > 0; nb = g.NeighborsView(vi) {
			u := int(nb[len(nb)-1])
			g.RemoveEdge(vi, u)
			tr.removed(g, vi, u)
		}
		want := desired[vi]
		if want < 1 {
			want = 1 // every node in a connected input graph has degree ≥ 1
		}
		for j := 0; j < want; j++ {
			vk := -1
			if !sampler.Empty() {
				for attempt := 0; attempt < maxSampleAttempts; attempt++ {
					cand := sampler.Sample(rng)
					if cand == vi || g.HasEdge(vi, cand) {
						continue
					}
					if g.Degree(cand) >= desired[cand] {
						continue
					}
					// Respect the attribute-correlation filter when possible;
					// after half the attempt budget, connectivity wins.
					if filter != nil && attempt < maxSampleAttempts/2 && !acceptEdge(rng, filter, vi, cand) {
						continue
					}
					vk = cand
					break
				}
			}
			if vk < 0 {
				// Fallback: attach to any random node that is not the orphan
				// itself; prefer one that already has edges so that the orphan
				// joins an existing component.
				vk = randomAttachmentPoint(rng, g, vi)
				if vk < 0 {
					break
				}
			}
			if !g.AddEdge(vi, vk) {
				continue
			}
			tr.added(g, vi, vk)
			if g.NumEdges() > targetEdges {
				if u, v, ok := deleteRandomEdgeAvoiding(rng, g, vi); ok {
					tr.removed(g, u, v)
				}
			}
		}
	}
}

// randomAttachmentPoint returns a node other than vi to attach an orphan to,
// preferring nodes with at least one edge. It returns -1 for graphs with no
// usable candidate.
func randomAttachmentPoint(rng *rand.Rand, g *graph.Builder, vi int) int {
	n := g.NumNodes()
	if n <= 1 {
		return -1
	}
	for attempt := 0; attempt < 200; attempt++ {
		cand := rng.Intn(n)
		if cand == vi || g.HasEdge(vi, cand) {
			continue
		}
		if g.Degree(cand) > 0 || attempt > 100 {
			return cand
		}
	}
	return -1
}

// deleteRandomEdgeAvoiding removes one (approximately uniformly chosen) edge
// that is not incident to the protected node, keeping the edge count on
// target without immediately undoing the repair that was just made. It
// returns the removed edge {u, v} and true, or false if it removed none.
func deleteRandomEdgeAvoiding(rng *rand.Rand, g *graph.Builder, protected int) (int, int, bool) {
	n := g.NumNodes()
	for attempt := 0; attempt < 400; attempt++ {
		u := rng.Intn(n)
		if u == protected {
			continue
		}
		nb := g.NeighborsView(u)
		if len(nb) == 0 {
			continue
		}
		v := int(nb[rng.Intn(len(nb))])
		if v == protected {
			continue
		}
		g.RemoveEdge(u, v)
		return u, v, true
	}
	return 0, 0, false
}

// orphanTracker keeps a builder's orphan list equal to g.OrphanedNodes()
// while the caller reports every edge it adds or removes; PostProcessGraph
// documents why the updates are exact.
type orphanTracker struct {
	inMain   []bool
	mainSize int
	orphans  []int // ascending
	// dirty marks the state stale: the next current call recomputes it.
	dirty bool

	// Scratch for the searches. In cutOff, mark[x] is stamp or stamp+1 when
	// the search from u or from v has reached x.
	mark   []uint32
	stamp  uint32
	queues [2][]int32
}

func newOrphanTracker(g *graph.Builder) *orphanTracker {
	n := g.NumNodes()
	return &orphanTracker{
		inMain: make([]bool, n),
		mark:   make([]uint32, n),
		dirty:  true,
	}
}

// current returns the orphan list, recomputing it first if it is stale. The
// slice is only valid until the next added or removed call.
func (t *orphanTracker) current(g *graph.Builder) []int {
	if t.dirty {
		t.orphans = g.OrphanedNodes()
		for i := range t.inMain {
			t.inMain[i] = true
		}
		for _, v := range t.orphans {
			t.inMain[v] = false
		}
		t.mainSize = len(t.inMain) - len(t.orphans)
		t.dirty = false
	}
	return t.orphans
}

// majorityWithout reports whether main would still hold more than n/2 nodes
// after losing lost of them.
func (t *orphanTracker) majorityWithout(lost int) bool {
	return 2*(t.mainSize-lost) > len(t.inMain)
}

// added updates the state after g.AddEdge(u, v) inserted a new edge.
func (t *orphanTracker) added(g *graph.Builder, u, v int) {
	switch {
	case t.dirty || t.inMain[u] && t.inMain[v]:
		// Stale, or an edge inside main: nothing to update.
	case t.inMain[u]:
		t.absorb(g, v)
	case t.inMain[v]:
		t.absorb(g, u)
	case !t.majorityWithout(0):
		t.dirty = true
	}
}

// removed updates the state after g.RemoveEdge(u, v) deleted an edge. Both
// endpoints lie in one component, so inMain[u] decides for both.
func (t *orphanTracker) removed(g *graph.Builder, u, v int) {
	if t.dirty || !t.inMain[u] {
		return
	}
	piece := t.cutOff(g, u, v)
	switch {
	case piece == nil:
	case !t.majorityWithout(len(piece)):
		t.dirty = true
	default:
		for _, x := range piece {
			t.inMain[x] = false
		}
		t.mainSize -= len(piece)
		slices.Sort(piece)
		t.orphans = mergeSorted(t.orphans, piece)
	}
}

// absorb moves the component holding v, just joined to main by an edge, into
// main and drops its nodes from the orphan list.
func (t *orphanTracker) absorb(g *graph.Builder, v int) {
	t.inMain[v] = true
	q := append(t.queues[0][:0], int32(v))
	for h := 0; h < len(q); h++ {
		for _, y := range g.NeighborsView(int(q[h])) {
			if !t.inMain[y] {
				t.inMain[y] = true
				q = append(q, y)
			}
		}
	}
	t.queues[0] = q
	t.mainSize += len(q)
	t.orphans = slices.DeleteFunc(t.orphans, func(x int) bool { return t.inMain[x] })
}

// cutOff is called after removing edge {u, v} from main. It runs a
// breadth-first search from each endpoint, expanding one node per side in
// turn. If the searches meet, main is still connected and cutOff returns
// nil. Otherwise the side whose queue empties first has visited its whole
// piece (the smaller one, or u's on a tie) and cutOff returns that piece.
func (t *orphanTracker) cutOff(g *graph.Builder, u, v int) []int32 {
	if t.stamp >= math.MaxUint32-2 {
		clear(t.mark)
		t.stamp = 0
	}
	t.stamp += 2
	t.mark[u], t.mark[v] = t.stamp, t.stamp+1
	t.queues[0] = append(t.queues[0][:0], int32(u))
	t.queues[1] = append(t.queues[1][:0], int32(v))
	var heads [2]int
	for side := 0; ; side ^= 1 {
		q := &t.queues[side]
		if heads[side] == len(*q) {
			return *q
		}
		own, other := t.stamp+uint32(side), t.stamp+uint32(side^1)
		x := (*q)[heads[side]]
		heads[side]++
		for _, y := range g.NeighborsView(int(x)) {
			switch t.mark[y] {
			case other:
				return nil
			case own:
			default:
				t.mark[y] = own
				*q = append(*q, y)
			}
		}
	}
}

// mergeSorted merges the ascending nodes into the ascending list, filling
// the grown list from the back.
func mergeSorted(list []int, nodes []int32) []int {
	i, j := len(list)-1, len(nodes)-1
	list = slices.Grow(list, len(nodes))[:len(list)+len(nodes)]
	for k := len(list) - 1; j >= 0; k-- {
		if i >= 0 && list[i] > int(nodes[j]) {
			list[k] = list[i]
			i--
		} else {
			list[k] = int(nodes[j])
			j--
		}
	}
	return list
}
