package structural

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
)

// datasetDegrees returns the degree sequence of a dataset stand-in at the
// given scale, generated at seed 1.
func datasetDegrees(tb testing.TB, name string, scale float64) []int {
	tb.Helper()
	p, err := datasets.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return datasets.Generate(rand.New(rand.NewSource(1)), p.Scaled(scale)).Degrees()
}

// searchNode is the reference lookup the guide table replaces: a binary
// search of the prefix sums for the first one above r.
func searchNode(s *NodeSampler, r int64) int {
	k := sort.Search(len(s.cum), func(k int) bool { return s.cum[k] > r })
	return int(s.nodes[k])
}

// checkLookup asserts that r selects the reference node.
func checkLookup(t *testing.T, s *NodeSampler, r int64) {
	t.Helper()
	if got, want := s.lookup(r), searchNode(s, r); got != want {
		t.Fatalf("lookup(%d) = node %d, binary search picks node %d", r, got, want)
	}
}

// TestNodeSamplerGuideTableMatchesSearch checks that the guide table maps
// every draw r to the node the binary search over the prefix sums picks, and
// that Sample spends exactly one Int63n per draw. Small masses are checked at
// every r; large ones at both sides of every bucket boundary and at random r.
func TestNodeSamplerGuideTableMatchesSearch(t *testing.T) {
	lastfm := datasetDegrees(t, "lastfm", 0.5)
	hub := make([]int, 1001)
	for i := range hub {
		hub[i] = 1
	}
	hub[500] = 10_000_000
	// nearPow2 spreads a total of 1<<24 + delta over 1000 nodes.
	nearPow2 := func(delta int) []int {
		d := make([]int, 1000)
		for i := range d {
			d[i] = (1 << 24) / 1000
		}
		d[999] += (1<<24)%1000 + delta
		return d
	}
	cases := []struct {
		name    string
		degrees []int
		exclude func(int) bool
	}{
		{"n=1", []int{7}, nil},
		{"n=2", []int{1, 3}, nil},
		{"n=10", []int{4, 1, 9, 2, 2, 16, 1, 5, 3, 8}, nil},
		{"lastfm-0.5", lastfm, nil},
		{"lastfm-0.5-no-degree-one", lastfm, func(i int) bool { return lastfm[i] == 1 }},
		{"zero-and-excluded", []int{0, 5, 0, 1, 1, 0, 12, 3, 0}, func(i int) bool { return i == 3 || i == 7 }},
		{"hub-1e7", hub, nil},
		{"pow2-minus-1", nearPow2(-1), nil},
		{"pow2", nearPow2(0), nil},
		{"pow2-plus-1", nearPow2(1), nil},
		{"pow2-minus-1-n=2", []int{1 << 22, 1<<22 - 1}, nil},
		{"pow2-plus-1-n=2", []int{1 << 22, 1<<22 + 1}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewNodeSampler(c.degrees, c.exclude)
			if len(s.guide) > len(s.nodes) {
				t.Fatalf("guide table has %d entries for %d nodes", len(s.guide), len(s.nodes))
			}
			if s.total <= 1<<16 {
				for r := int64(0); r < s.total; r++ {
					checkLookup(t, s, r)
				}
			} else {
				for b := range s.guide {
					lo := int64(b) << s.shift
					checkLookup(t, s, lo)
					if lo > 0 {
						checkLookup(t, s, lo-1)
					}
				}
				checkLookup(t, s, s.total-1)
				rng := rand.New(rand.NewSource(int64(len(c.name))))
				for i := 0; i < 20000; i++ {
					checkLookup(t, s, rng.Int63n(s.total))
				}
			}
			a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			for i := 0; i < 1000; i++ {
				if got, want := s.Sample(a), searchNode(s, b.Int63n(s.total)); got != want {
					t.Fatalf("draw %d: Sample = node %d, binary search on the same r picks node %d", i, got, want)
				}
			}
		})
	}
}

// BenchmarkNodeSamplerSample times one π draw over the degree sequences of
// lastfm at scale 0.5 (922 nodes) and pokec at scale 0.1 (about 59k nodes).
func BenchmarkNodeSamplerSample(b *testing.B) {
	for _, c := range []struct {
		name    string
		dataset string
		scale   float64
	}{
		{"lastfm-1k", "lastfm", 0.5},
		{"pokec-59k", "pokec", 0.1},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewNodeSampler(datasetDegrees(b, c.dataset, c.scale), nil)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sampleSink += s.Sample(rng)
			}
		})
	}
}

// sampleSink keeps the benchmarked draws live.
var sampleSink int

func TestNodeSamplerProportionalToDegree(t *testing.T) {
	degrees := []int{1, 2, 3, 4}
	s := NewNodeSampler(degrees, nil)
	if s.total != 10 {
		t.Fatalf("pool size = %d, want 10", s.total)
	}
	rng := dp.NewRand(1)
	counts := make([]float64, len(degrees))
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[s.Sample(rng)]++
	}
	for i, d := range degrees {
		want := float64(d) / 10
		got := counts[i] / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("node %d sampled with frequency %v, want ≈ %v", i, got, want)
		}
	}
}

// TestNodeSamplerChiSquared is a goodness-of-fit check that the prefix-sum
// sampler realises exactly the π distribution the repeated-ID pool encoded:
// sampled counts over a skewed degree sequence are compared to the expected
// counts with Pearson's χ² statistic. With k−1 = 7 degrees of freedom the
// 99.9th percentile of the χ² distribution is ≈ 24.3; a correct sampler fails
// this bound with probability 0.001, a subtly biased one blows past it.
func TestNodeSamplerChiSquared(t *testing.T) {
	degrees := []int{1, 1, 2, 5, 10, 50, 100, 1000} // heavily skewed tail
	s := NewNodeSampler(degrees, nil)
	total := float64(sumDegrees(degrees))
	rng := dp.NewRand(42)
	const trials = 200000
	counts := make([]float64, len(degrees))
	for i := 0; i < trials; i++ {
		counts[s.Sample(rng)]++
	}
	chi2 := 0.0
	for i, d := range degrees {
		expected := trials * float64(d) / total
		diff := counts[i] - expected
		chi2 += diff * diff / expected
	}
	const critical = 24.32 // χ²(df=7) at p = 0.001
	if chi2 > critical {
		t.Fatalf("χ² = %v exceeds the p=0.001 critical value %v; counts = %v", chi2, critical, counts)
	}
}

// The prefix-sum sampler must not allocate pool memory proportional to Σ d_i:
// a single hub of degree 10^7 still needs only two slice entries.
func TestNodeSamplerSkewedMemory(t *testing.T) {
	degrees := []int{10000000, 1}
	s := NewNodeSampler(degrees, nil)
	if len(s.nodes) != 2 || len(s.cum) != 2 {
		t.Fatalf("sampler stores %d/%d entries, want 2/2", len(s.nodes), len(s.cum))
	}
	if s.total != 10000001 {
		t.Fatalf("pool size = %d, want 10000001", s.total)
	}
}

func TestNodeSamplerExcludesNodes(t *testing.T) {
	degrees := []int{5, 1, 1, 5}
	s := NewNodeSampler(degrees, func(i int) bool { return degrees[i] == 1 })
	if s.total != 10 {
		t.Fatalf("pool size = %d, want 10 (degree-one nodes excluded)", s.total)
	}
	rng := dp.NewRand(2)
	for i := 0; i < 1000; i++ {
		v := s.Sample(rng)
		if v == 1 || v == 2 {
			t.Fatalf("sampled excluded node %d", v)
		}
	}
}

func TestNodeSamplerZeroDegreeNeverSampled(t *testing.T) {
	s := NewNodeSampler([]int{0, 3, 0, 2}, nil)
	rng := dp.NewRand(3)
	for i := 0; i < 1000; i++ {
		v := s.Sample(rng)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-degree node %d", v)
		}
	}
}

func TestNodeSamplerEmpty(t *testing.T) {
	s := NewNodeSampler([]int{0, 0}, nil)
	if !s.Empty() {
		t.Fatal("sampler with all-zero degrees should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sampling from empty sampler did not panic")
		}
	}()
	s.Sample(dp.NewRand(1))
}

func TestNodeSamplerPanicsOnNegativeDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative degree did not panic")
		}
	}()
	NewNodeSampler([]int{1, -1}, nil)
}

// TestPairSamplerChiSquared checks that one filtered pair draw has the
// distribution of the proposals the accept/reject loop keeps. The fixture
// has eight nodes of unequal degree, one of them excluded from π, in three
// classes; the acceptance table holds a 0, a 1, fractional entries and one
// asymmetric pair. The count of each unordered pair {u, v}, u ≠ v, is
// compared with π_u·π_v·(A(u,v) + A(v,u))/Z and that of each self-loop with
// π_u²·A(u,u)/Z by Pearson's χ² at p = 0.001. Pairs of weight zero, and so
// every pair holding the excluded node, must never be drawn.
func TestPairSamplerChiSquared(t *testing.T) {
	degrees := []int{1, 2, 3, 4, 5, 6, 7, 8}
	const excluded = 2
	class := []int{0, 1, 2, 0, 1, 2, 0, 1}
	accept := [3][3]float64{
		{1, 0.5, 0.2},
		{0.5, 0, 0.7},
		{0.9, 0.7, 0.3}, // A(2,0) = 0.9 but A(0,2) = 0.2
	}
	filter := &EdgeFilter{Class: class, Classes: 3, Pair: func(a, b int) float64 { return accept[a][b] }}
	s := NewNodeSampler(degrees, func(u int) bool { return u == excluded })
	p := newPairSampler(s, filter)

	n := len(degrees)
	pi := func(u int) float64 {
		if u == excluded {
			return 0
		}
		return float64(degrees[u])
	}
	a := func(u, v int) float64 { return accept[class[u]][class[v]] }
	weight := make([][]float64, n) // weight[u][v], u ≤ v: unnormalised probability of {u, v}
	z := 0.0
	for u := 0; u < n; u++ {
		weight[u] = make([]float64, n)
		for v := u; v < n; v++ {
			if u == v {
				weight[u][v] = pi(u) * pi(u) * a(u, u)
			} else {
				weight[u][v] = pi(u) * pi(v) * (a(u, v) + a(v, u))
			}
			z += weight[u][v]
		}
	}

	const trials = 200000
	counts := make([][]float64, n)
	for u := range counts {
		counts[u] = make([]float64, n)
	}
	rng := dp.NewRand(7)
	for i := 0; i < trials; i++ {
		u, v := p.sample(rng)
		counts[min(u, v)][max(u, v)]++
	}
	chi2, bins := 0.0, 0
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			if weight[u][v] == 0 {
				if counts[u][v] != 0 {
					t.Fatalf("pair {%d,%d} has weight zero but was drawn %v times", u, v, counts[u][v])
				}
				continue
			}
			expected := trials * weight[u][v] / z
			diff := counts[u][v] - expected
			chi2 += diff * diff / expected
			bins++
		}
	}
	if bins != 22 {
		t.Fatalf("fixture has %d pairs of positive weight, want 22", bins)
	}
	const critical = 46.80 // χ²(df=21) at p = 0.001
	if chi2 > critical {
		t.Fatalf("χ² = %v exceeds the p=0.001 critical value %v", chi2, critical)
	}
}
