package structural

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"agmdp/internal/graph"
)

// referencePostProcessGraph is Algorithm 2's loop in its direct form: every
// round recomputes the orphan list with a whole-graph search through
// g.OrphanedNodes(). PostProcessGraph must match it draw for draw.
func referencePostProcessGraph(rng *rand.Rand, g *graph.Builder, sampler *NodeSampler, desired []int, filter *EdgeFilter) {
	n := g.NumNodes()
	if n == 0 || len(desired) != n {
		return
	}
	targetEdges := sumDegrees(desired) / 2
	maxRounds := 4*n + 100
	const maxSampleAttempts = 200

	for round := 0; round < maxRounds; round++ {
		orphans := g.OrphanedNodes()
		if len(orphans) == 0 {
			return
		}
		vi := orphans[rng.Intn(len(orphans))]
		// Remove any edges the orphan currently has (they can only reach other
		// orphans).
		for _, u := range slices.Clone(g.NeighborsView(vi)) {
			g.RemoveEdge(vi, int(u))
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
			if g.NumEdges() > targetEdges {
				referenceDeleteRandomEdgeAvoiding(rng, g, vi)
			}
		}
	}
}

// referenceDeleteRandomEdgeAvoiding is deleteRandomEdgeAvoiding in the form
// referencePostProcessGraph calls: same draws, no result.
func referenceDeleteRandomEdgeAvoiding(rng *rand.Rand, g *graph.Builder, protected int) {
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
		return
	}
}

// repairCase is one random input to the orphan repair pass.
type repairCase struct {
	shape   string
	g       *graph.Builder
	desired []int
	sampler *NodeSampler
	filter  *EdgeFilter
}

// repairShapes name the start graphs randomRepairCase draws from.
var repairShapes = []string{"tiny", "edgeless", "fragmented", "chung-lu", "halves", "tree"}

// randomRepairCase draws a start graph of a random shape, a desired degree
// sequence near its degrees (so the edge budget is tight and the pass
// deletes edges as it attaches), and a random choice of filter and of
// degree-one exclusion from π.
func randomRepairCase(rng *rand.Rand) repairCase {
	shape := repairShapes[rng.Intn(len(repairShapes))]
	var n int
	switch shape {
	case "tiny":
		n = rng.Intn(4)
	case "chung-lu":
		n = 20 + rng.Intn(180)
	default:
		n = 4 + rng.Intn(80)
	}
	g := graph.NewBuilder(n, 0)
	var desired []int
	switch shape {
	case "tiny":
		for k := rng.Intn(4); k > 0 && n > 1; k-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
	case "fragmented":
		// Groups of one to five nodes, each a path plus a random chord.
		for start := 0; start < n; {
			size := min(1+rng.Intn(5), n-start)
			for i := start + 1; i < start+size; i++ {
				g.AddEdge(i-1, i)
			}
			if size > 2 {
				g.AddEdge(start+rng.Intn(size), start+rng.Intn(size))
			}
			start += size
		}
	case "chung-lu":
		// TriCycLe's pre-repair seed: degree-one nodes held out of π and one
		// seed edge held back for each of them.
		desired = powerLawDegrees(rng, n, max(2, n/4))
		degreeOne := 0
		for _, d := range desired {
			if d == 1 {
				degreeOne++
			}
		}
		s := NewNodeSampler(desired, func(i int) bool { return desired[i] == 1 })
		g = generateCLBuilder(rng, n, s, max(sumDegrees(desired)/2-degreeOne, 0), nil, 1)
	case "halves":
		// Two or three equal cycles and a few isolated nodes, so main holds
		// at most n/2 nodes and size ties need the tie rule.
		parts := 2 + rng.Intn(2)
		size := max(n/(parts+1), 2)
		for p := 0; p < parts; p++ {
			base := p * size
			for i := 0; i < size && base+size <= n; i++ {
				g.AddEdge(base+i, base+(i+1)%size)
			}
		}
	case "tree":
		// A random recursive tree on most nodes: every deletion inside it
		// cuts a bridge, near a leaf or deep inside.
		span := n/2 + 1 + rng.Intn(n/2)
		for i := 1; i < span; i++ {
			g.AddEdge(i, rng.Intn(i))
		}
	}
	if desired == nil {
		desired = make([]int, n)
		for i := range desired {
			desired[i] = max(g.Degree(i)+rng.Intn(3)-1, 0)
			if rng.Intn(4) == 0 {
				desired[i] = rng.Intn(6)
			}
		}
	}
	var exclude func(int) bool
	if rng.Intn(2) == 0 {
		exclude = func(i int) bool { return desired[i] == 1 }
	}
	var filter *EdgeFilter
	if rng.Intn(2) == 0 {
		// (7u + 13v) mod 5 depends only on u mod 5 and v mod 5.
		filter = classFilter(n, 5, func(u int) int { return u % 5 }, func(a, b int) float64 { return float64((7*a+13*b)%5) / 4 })
	}
	return repairCase{shape: shape, g: g, desired: desired, sampler: NewNodeSampler(desired, exclude), filter: filter}
}

// encodeBuilder returns the AGMDPCSR bytes of b's finalized graph.
func encodeBuilder(t *testing.T, b *graph.Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, b.Finalize()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPostProcessGraphMatchesReference checks, over thousands of random start
// graphs, that the tracked repair pass finalizes byte-identically to the
// per-round recomputation and leaves the rng in the same state.
func TestPostProcessGraphMatchesReference(t *testing.T) {
	const cases = 3000
	shapes := map[string]int{}
	for seed := int64(0); seed < cases; seed++ {
		c := randomRepairCase(rand.New(rand.NewSource(seed)))
		shapes[c.shape]++
		got, want := c.g.Clone(), c.g.Clone()
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		PostProcessGraph(rngGot, got, c.sampler, c.desired, c.filter)
		referencePostProcessGraph(rngWant, want, c.sampler, c.desired, c.filter)
		if !bytes.Equal(encodeBuilder(t, got), encodeBuilder(t, want)) {
			t.Fatalf("seed %d (%s, n=%d): repaired graph differs from the reference", seed, c.shape, c.g.NumNodes())
		}
		if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
			t.Fatalf("seed %d (%s, n=%d): rng state differs from the reference", seed, c.shape, c.g.NumNodes())
		}
	}
	for _, s := range repairShapes {
		if shapes[s] < cases/(2*len(repairShapes)) {
			t.Fatalf("shape %s drawn %d times in %d cases", s, shapes[s], cases)
		}
	}
}

// TestOrphanTrackerMatchesOrphanedNodes drives the tracker with random edge
// insertions and deletions and compares its list with g.OrphanedNodes()
// after every one it did not mark stale. It also checks that the random
// walks reach every update rule.
func TestOrphanTrackerMatchesOrphanedNodes(t *testing.T) {
	var absorbs, splits, stale, checked int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomRepairCase(rng).g
		n := g.NumNodes()
		if n < 2 {
			continue
		}
		tr := newOrphanTracker(g)
		tr.current(g)
		for step := 0; step < 300; step++ {
			if step%4 == 0 {
				tr.current(g)
			}
			before := tr.mainSize
			if u, v := rng.Intn(n), rng.Intn(n); rng.Intn(2) == 0 {
				if g.AddEdge(u, v) {
					tr.added(g, u, v)
				}
			} else if nb := g.NeighborsView(u); len(nb) > 0 {
				v = int(nb[rng.Intn(len(nb))])
				g.RemoveEdge(u, v)
				tr.removed(g, u, v)
			}
			if tr.dirty {
				stale++
				continue
			}
			switch {
			case tr.mainSize > before:
				absorbs++
			case tr.mainSize < before:
				splits++
			}
			checked++
			if want := g.OrphanedNodes(); !slices.Equal(tr.orphans, want) {
				t.Fatalf("seed %d step %d: tracked orphans %v, want %v", seed, step, tr.orphans, want)
			}
			if tr.mainSize != n-len(tr.orphans) {
				t.Fatalf("seed %d step %d: main size %d, want %d", seed, step, tr.mainSize, n-len(tr.orphans))
			}
		}
	}
	if absorbs == 0 || splits == 0 || stale == 0 || checked == 0 {
		t.Fatalf("update rules not all reached: %d absorbs, %d splits, %d stale, %d checked", absorbs, splits, stale, checked)
	}
	t.Logf("%d absorbs, %d splits, %d stale, %d checked", absorbs, splits, stale, checked)
}
