package structural

import (
	"math/rand"
	"slices"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// insertLoop is the reference the sequential seed must equal: the Chung–Lu
// loop run on rng that adds each new proposal to an empty builder, one
// AddEdge at a time, with the proposal budget of proposeEdges.
func insertLoop(rng *rand.Rand, n int, sampler *NodeSampler, target int, filter *EdgeFilter) *graph.Builder {
	b := graph.NewBuilder(n, 0)
	if sampler.Empty() || target <= 0 {
		return b
	}
	pairs := newPairSampler(sampler, filter)
	if pairs.empty() {
		return b
	}
	maxProposals := maxProposalFactor * (target + 1)
	for proposals := 0; b.NumEdges() < target && proposals < maxProposals; proposals++ {
		u, v := pairs.sample(rng)
		if u == v || b.HasEdge(u, v) {
			continue
		}
		b.AddEdge(u, v)
	}
	return b
}

// TestSequentialSeedMatchesInsertLoop checks that the sequential seed,
// which collects its proposals and packs them once, holds the rows the
// insert loop builds from the same draws and leaves the caller's rng where
// the insert loop leaves it.
func TestSequentialSeedMatchesInsertLoop(t *testing.T) {
	small := make([]int, 200)
	for i := range small {
		small[i] = 3
	}
	large := parallelDegrees(3000)
	// Three classes whose six class pairs all keep some weight, so every
	// proposal first draws its class pair.
	threeClasses := func(n int) *EdgeFilter {
		return classFilter(n, 3, func(u int) int { return u % 3 }, func(a, b int) float64 {
			return 0.2 + 0.3*float64((a+2*b)%3)
		})
	}
	cases := []struct {
		name    string
		degrees []int
		target  int
		filter  *EdgeFilter
	}{
		{"unfiltered-small", small, sumDegrees(small) / 2, nil},
		{"filtered-small", small, sumDegrees(small) / 2, threeClasses(len(small))},
		{"unfiltered-large", large, sumDegrees(large) / 2, nil},
		{"filtered-large", large, sumDegrees(large) / 2, threeClasses(len(large))},
		// Six nodes have only 15 pairs, so the proposal budget ends the loop.
		{"unreachable", []int{5, 5, 5, 5, 5, 5}, 20, nil},
		{"zero", small, 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.degrees)
			sampler := NewNodeSampler(c.degrees, nil)
			gotRng, wantRng := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			got := generateCLBuilder(gotRng, n, sampler, c.target, c.filter, 1)
			want := insertLoop(wantRng, n, sampler, c.target, c.filter)
			if got.NumEdges() != want.NumEdges() {
				t.Fatalf("%d edges, want %d", got.NumEdges(), want.NumEdges())
			}
			for u := 0; u < n; u++ {
				if !slices.Equal(got.NeighborsView(u), want.NeighborsView(u)) {
					t.Fatalf("row %d = %v, want %v", u, got.NeighborsView(u), want.NeighborsView(u))
				}
			}
			if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
				t.Fatalf("next Int63 = %d, want %d: the draws differ", g, w)
			}
		})
	}
	if target := sumDegrees(large) / 2; target < parallel.MinShardEdges {
		t.Fatalf("large target %d is below parallel.MinShardEdges = %d", target, parallel.MinShardEdges)
	}
}

// TestEdgeSetMatchesMap checks the flat edge set against a map on random
// canonical keys: filled to the count it was sized for, add reports true
// exactly once per key. Each set first takes keys whose home slot is its
// last, so their probes wrap round to slot 0.
func TestEdgeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomKey := func(nodes int) uint64 {
		for {
			e := graph.Edge{U: rng.Intn(nodes), V: rng.Intn(nodes)}.Canonical()
			if e.U != e.V {
				return uint64(e.U)<<32 | uint64(e.V)
			}
		}
	}
	for _, n := range []int{0, 1, 2, 3, 10, 100, 5000} {
		s := newEdgeSet(n)
		slots := len(s.slots)
		if slots&(slots-1) != 0 || 2*slots < 3*n {
			t.Fatalf("sized for %d: %d slots, want a power of two of at least 1.5 per key", n, slots)
		}
		ref := make(map[uint64]bool)
		adds := 0
		add := func(key uint64) {
			got := s.add(key)
			if got == ref[key] {
				t.Fatalf("sized for %d: add(%#x) = %v with the key present = %v", n, key, got, ref[key])
			}
			if got {
				adds++
			}
			ref[key] = true
		}
		for wrapped := 0; wrapped < min(n, 3); {
			if key := randomKey(1 << 16); s.home(key) == slots-1 && !ref[key] {
				add(key)
				wrapped++
			}
		}
		// Keys from few nodes repeat, so add also meets present keys.
		nodes := 3
		for nodes*(nodes-1) < 4*n {
			nodes++
		}
		for len(ref) < n {
			add(randomKey(nodes))
		}
		for key := range ref {
			add(key)
		}
		occupied := 0
		for _, key := range s.slots {
			if key != 0 {
				occupied++
			}
		}
		if adds != n || occupied != n {
			t.Fatalf("sized for %d: %d adds reported new and %d slots occupied, want %d", n, adds, occupied, n)
		}
	}
}
