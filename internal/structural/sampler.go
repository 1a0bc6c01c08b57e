package structural

import (
	"fmt"
	"math/rand"
)

// NodeSampler draws nodes from the π distribution of the Chung–Lu family of
// models, in which node i is selected with probability d_i / Σ_j d_j. Instead
// of the classic Fast Chung–Lu pool (each node ID repeated d_i times, O(Σ d_i)
// memory), it stores the included nodes once together with the running prefix
// sum of their degrees: a draw picks a uniform integer r below the total mass
// and selects the first node whose prefix sum exceeds r. A guide table over
// the prefix sums finds that node: the mass is cut into buckets of a
// power-of-two width, at most one bucket per node, and each bucket records
// the node its lowest r selects. A draw starts at its bucket's entry and
// steps past the prefix sums that do not exceed r, which takes O(1)
// expected steps, and memory stays O(n) however skewed the degree sequence
// is.
type NodeSampler struct {
	nodes []int32 // node IDs with positive included degree, ascending
	cum   []int64 // cum[k] = Σ degrees of nodes[0..k] (inclusive prefix sums)
	total int64   // total mass, Σ of the included degrees
	guide []int32 // guide[b] = first k with cum[k] > b<<shift
	shift uint    // log2 of the bucket width
}

// NewNodeSampler builds a sampler from target degrees indexed by node ID.
// Nodes with weight zero never appear in the distribution. exclude, if
// non-nil, removes specific nodes from the distribution regardless of their
// degree (TriCycLe's orphan extension excludes degree-one nodes this way).
func NewNodeSampler(degrees []int, exclude func(node int) bool) *NodeSampler {
	s := &NodeSampler{}
	for i, d := range degrees {
		if d < 0 {
			panic(fmt.Sprintf("structural: negative degree %d for node %d", d, i))
		}
		if d == 0 || (exclude != nil && exclude(i)) {
			continue
		}
		s.total += int64(d)
		s.nodes = append(s.nodes, int32(i))
		s.cum = append(s.cum, s.total)
	}
	if s.total == 0 {
		return s
	}
	// The narrowest bucket width that needs no more buckets than nodes.
	for (s.total-1)>>s.shift >= int64(len(s.nodes)) {
		s.shift++
	}
	s.guide = make([]int32, (s.total-1)>>s.shift+1)
	k := 0
	for b := range s.guide {
		for s.cum[k] <= int64(b)<<s.shift {
			k++
		}
		s.guide[b] = int32(k)
	}
	return s
}

// Empty reports whether the sampler has no mass (all degrees zero or all
// nodes excluded).
func (s *NodeSampler) Empty() bool { return s.total == 0 }

// PoolSize returns the total mass of the distribution, i.e. the sum of the
// included degrees (the length the classic repeated-ID pool would have had).
func (s *NodeSampler) PoolSize() int { return int(s.total) }

// Sample draws one node with probability proportional to its degree: a
// uniform draw r in [0, total) selects the first node whose inclusive prefix
// sum exceeds r. It panics on an empty sampler.
func (s *NodeSampler) Sample(rng *rand.Rand) int {
	if s.total == 0 {
		panic("structural: sampling from an empty node sampler")
	}
	return s.lookup(rng.Int63n(s.total))
}

// lookup returns the node that r in [0, total) selects.
func (s *NodeSampler) lookup(r int64) int {
	k := s.guide[r>>s.shift]
	for s.cum[k] <= r {
		k++
	}
	return int(s.nodes[k])
}
