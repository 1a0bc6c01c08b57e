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
	s.shift = guideShift(s.total, len(s.nodes))
	s.fillGuide(make([]int32, s.guideLen()))
	return s
}

// guideShift returns log2 of the narrowest power-of-two bucket width that
// cuts a mass of total into no more buckets than count nodes.
func guideShift(total int64, count int) uint {
	shift := uint(0)
	for (total-1)>>shift >= int64(count) {
		shift++
	}
	return shift
}

// guideLen returns the number of buckets the guide table of s needs.
func (s *NodeSampler) guideLen() int { return int((s.total-1)>>s.shift + 1) }

// fillGuide makes guide, of length guideLen, the guide table of s: each
// bucket records the node its lowest r selects.
func (s *NodeSampler) fillGuide(guide []int32) {
	k := 0
	for b := range guide {
		for s.cum[k] <= int64(b)<<s.shift {
			k++
		}
		guide[b] = int32(k)
	}
	s.guide = guide
}

// byClass splits s into one sampler per class, classes[c] being π
// restricted to the nodes of class c (empty when the class holds none).
// class gives every node's class, in [0, k). A counting pass sizes the
// classes, so the node, prefix-sum and guide arrays of all k samplers are
// three shared arrays of exact size, no larger than those of s.
func (s *NodeSampler) byClass(class []int, k int) []NodeSampler {
	start := make([]int, k+1)
	for _, v := range s.nodes {
		start[class[v]+1]++
	}
	for c := 0; c < k; c++ {
		start[c+1] += start[c]
	}
	nodes := make([]int32, len(s.nodes))
	cum := make([]int64, len(s.nodes))
	classes := make([]NodeSampler, k)
	for c := range classes {
		// Each class's views have exactly its capacity in the shared
		// arrays, so the appends below write in place and never allocate.
		classes[c].nodes = nodes[start[c]:start[c]:start[c+1]]
		classes[c].cum = cum[start[c]:start[c]:start[c+1]]
	}
	prev := int64(0)
	for i, v := range s.nodes {
		c := &classes[class[v]]
		c.total += s.cum[i] - prev
		prev = s.cum[i]
		c.nodes = append(c.nodes, v)
		c.cum = append(c.cum, c.total)
	}
	buckets := 0
	for c := range classes {
		if !classes[c].Empty() {
			classes[c].shift = guideShift(classes[c].total, len(classes[c].nodes))
			buckets += classes[c].guideLen()
		}
	}
	guide := make([]int32, buckets)
	for c := range classes {
		if !classes[c].Empty() {
			n := classes[c].guideLen()
			classes[c].fillGuide(guide[:n:n])
			guide = guide[n:]
		}
	}
	return classes
}

// Empty reports whether the sampler has no mass (all degrees zero or all
// nodes excluded).
func (s *NodeSampler) Empty() bool { return s.total == 0 }

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

// pairSampler draws the two endpoints of a Chung–Lu seed proposal. Without
// a filter it is the generator's own π sampler taken twice, so it makes
// exactly the draws the unfiltered loop always made. With a filter it draws
// the accepted edges directly: it picks an unordered class pair {a, b} with
// weight M_a·M_b·(A(a,b) + A(b,a)), or M_a²·A(a,a) when a = b, where M_c is
// the π mass of class c, and then one endpoint from π restricted to each
// class. An ordered proposal (u, v) thus comes with probability
// ∝ π_u·π_v·A(u, v), the distribution of the proposals that rejection by
// the filter keeps, and no proposal is spent on a rejection. The sampler is
// built once per generation and is read-only, so concurrent streams share
// it.
type pairSampler struct {
	pairs []endpointPair // the class pairs of positive weight
	cum   []float64      // cum[i] = Σ weights of pairs[0..i]
}

// endpointPair is one class pair: the π samplers of its two endpoints.
type endpointPair struct{ u, v *NodeSampler }

// newPairSampler builds the pair sampler of s under filter. Its pair table
// has one entry per class pair of positive weight: with k′ classes holding
// π mass, at most k′(k′+1)/2, which is never more than the filter's
// unordered class pairs.
func newPairSampler(s *NodeSampler, filter *EdgeFilter) *pairSampler {
	if filter == nil {
		return &pairSampler{pairs: []endpointPair{{s, s}}}
	}
	classes := s.byClass(filter.Class, filter.Classes)
	var live []int // the classes holding π mass
	for c := range classes {
		if !classes[c].Empty() {
			live = append(live, c)
		}
	}
	size := len(live) * (len(live) + 1) / 2
	p := &pairSampler{pairs: make([]endpointPair, 0, size), cum: make([]float64, 0, size)}
	total := 0.0
	for i, a := range live {
		for _, b := range live[i:] {
			w := filter.Pair(a, b)
			if a != b {
				w += filter.Pair(b, a)
			}
			w *= float64(classes[a].total) * float64(classes[b].total)
			if w > 0 {
				total += w
				p.pairs = append(p.pairs, endpointPair{&classes[a], &classes[b]})
				p.cum = append(p.cum, total)
			}
		}
	}
	return p
}

// empty reports whether no proposal can be accepted.
func (p *pairSampler) empty() bool { return len(p.pairs) == 0 }

// sample draws the endpoints of one proposal; it may return a self-loop,
// which the caller redraws. With a single class pair it spends no draw on
// choosing the pair.
func (p *pairSampler) sample(rng *rand.Rand) (int, int) {
	e := &p.pairs[0]
	if len(p.pairs) > 1 {
		// The first pair whose prefix sum exceeds r; a rounded r at the
		// total falls to the last pair.
		r := rng.Float64() * p.cum[len(p.cum)-1]
		lo, hi := 0, len(p.cum)-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if p.cum[mid] > r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		e = &p.pairs[lo]
	}
	return e.u.Sample(rng), e.v.Sample(rng)
}
