// Package datasets provides synthetic stand-ins for the four real-world
// social networks used in the paper's evaluation (Last.fm, Petster, Epinions
// and Pokec; Appendix A, Table 6). The real datasets cannot be redistributed
// with this library, so each profile is a calibrated generator that produces
// attributed graphs with the same headline characteristics: node and edge
// counts, a heavy-tailed degree distribution with the reported maximum and
// average degree, substantial triangle density / local clustering, two binary
// node attributes, and attribute homophily. All of the paper's mechanisms see
// exactly the same code path on these graphs as they would on the originals,
// so the qualitative shape of the experimental results is preserved.
//
// Every profile also carries a DefaultScale used by the experiment harness so
// that the largest datasets finish in laptop-scale time; the scale can be
// overridden (up to 1.0 = full size) from the CLI or the benchmarks.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"agmdp/internal/graph"
)

// Profile describes one synthetic dataset generator.
type Profile struct {
	// Name identifies the dataset ("lastfm", "petster", "epinions", "pokec").
	Name string
	// Nodes and Edges are the target sizes (Table 6).
	Nodes int
	Edges int
	// MaxDegree caps the degree distribution (Table 6's dmax).
	MaxDegree int
	// ClosureFraction is the fraction of edges created by triadic closure
	// (friend-of-a-friend wiring); it controls the triangle density.
	ClosureFraction float64
	// Homophily is the probability that a non-closure edge is forced to join
	// two nodes with identical attribute configurations.
	Homophily float64
	// AttrProbs holds the marginal probability of each binary attribute
	// being 1.
	AttrProbs []float64
	// DefaultScale is the fraction of the full size the experiment harness
	// uses by default (1.0 = full size).
	DefaultScale float64
	// Epsilons is the privacy-budget grid the paper evaluates this dataset on.
	Epsilons []float64
	// Trials is the number of synthetic graphs the paper averages over for
	// this dataset (used by the experiment harness, usually reduced).
	Trials int
}

// Table 6 of the paper, used to calibrate the profiles.
var (
	lastfm = Profile{
		Name: "lastfm", Nodes: 1843, Edges: 12668, MaxDegree: 119,
		ClosureFraction: 0.42, Homophily: 0.55,
		AttrProbs: []float64{0.33, 0.22}, DefaultScale: 1.0,
		Epsilons: []float64{math.Log(3), math.Log(2), 0.3, 0.2}, Trials: 1000,
	}
	petster = Profile{
		Name: "petster", Nodes: 1788, Edges: 12476, MaxDegree: 272,
		ClosureFraction: 0.38, Homophily: 0.45,
		AttrProbs: []float64{0.48, 0.62}, DefaultScale: 1.0,
		Epsilons: []float64{math.Log(3), math.Log(2), 0.3, 0.2}, Trials: 1000,
	}
	epinions = Profile{
		Name: "epinions", Nodes: 26427, Edges: 104075, MaxDegree: 625,
		ClosureFraction: 0.40, Homophily: 0.50,
		AttrProbs: []float64{0.15, 0.10}, DefaultScale: 0.25,
		Epsilons: []float64{math.Log(3), math.Log(2), 0.3, 0.2}, Trials: 100,
	}
	pokec = Profile{
		Name: "pokec", Nodes: 592627, Edges: 3725424, MaxDegree: 1274,
		ClosureFraction: 0.33, Homophily: 0.60,
		AttrProbs: []float64{0.51, 0.57}, DefaultScale: 0.05,
		Epsilons: []float64{0.2, 0.1, 0.05, 0.01}, Trials: 100,
	}
)

// AllProfiles returns the four dataset profiles in the order the paper lists
// them.
func AllProfiles() []Profile {
	return []Profile{lastfm, petster, epinions, pokec}
}

// ByName returns the profile with the given (case-insensitive) name.
func ByName(name string) (Profile, error) {
	for _, p := range AllProfiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("datasets: unknown dataset %q (want lastfm, petster, epinions or pokec)", name)
}

// CheckScale validates a user-supplied scale factor against the range every
// caller of Profile.Scaled must respect: (0, 1]. The facade and the HTTP
// server both funnel client scales through this check, so a scale the
// library accepts is exactly a scale the service accepts.
func CheckScale(scale float64) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("datasets: scale %v outside (0, 1]", scale)
	}
	return nil
}

// NumAttributes returns the number of binary attributes the profile carries.
func (p Profile) NumAttributes() int { return len(p.AttrProbs) }

// AverageDegree returns the target average degree 2·Edges/Nodes.
func (p Profile) AverageDegree() float64 {
	if p.Nodes == 0 {
		return 0
	}
	return 2 * float64(p.Edges) / float64(p.Nodes)
}

// Scaled returns a copy of the profile with node and edge counts (and the
// maximum degree) multiplied by factor, clamped to sensible minima. A factor
// of 1 returns the profile unchanged.
func (p Profile) Scaled(factor float64) Profile {
	if factor <= 0 {
		panic(fmt.Sprintf("datasets: non-positive scale factor %v", factor))
	}
	if factor == 1 {
		return p
	}
	out := p
	out.Nodes = clampMin(int(math.Round(float64(p.Nodes)*factor)), 50)
	out.Edges = clampMin(int(math.Round(float64(p.Edges)*factor)), out.Nodes)
	out.MaxDegree = clampMin(int(math.Round(float64(p.MaxDegree)*math.Sqrt(factor))), 10)
	if out.MaxDegree > out.Nodes-1 {
		out.MaxDegree = out.Nodes - 1
	}
	return out
}

func clampMin(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// Generate builds one attributed graph following the profile. The generator
// works in three phases:
//
//  1. attributes: each node draws its binary attributes independently from the
//     profile's marginals;
//  2. preferential edges: (1−ClosureFraction)·Edges edges are created by a
//     degree-weighted (Chung–Lu style) process in which, with probability
//     Homophily, the second endpoint is drawn from the nodes sharing the first
//     endpoint's attribute configuration;
//  3. triadic closure: the remaining edges connect a node to a random
//     two-hop neighbour, creating the triangle density and clustering that
//     social networks exhibit.
//
// Finally the graph is reduced to its largest connected component (as the
// paper does for the real datasets) while keeping the node count, so the
// result may contain slightly fewer edges than the target; the achieved
// statistics are recorded by the experiment harness.
func Generate(rng *rand.Rand, p Profile) *graph.Graph {
	w := p.NumAttributes()
	g := graph.NewBuilder(p.Nodes, w)
	if p.Nodes < 2 {
		return g.Finalize()
	}

	// Phase 1: attributes.
	for i := 0; i < p.Nodes; i++ {
		var a graph.AttrVector
		for j, prob := range p.AttrProbs {
			if rng.Float64() < prob {
				a = a.WithBit(j, 1)
			}
		}
		g.SetAttr(i, a)
	}

	// Target degrees from a truncated discrete power law calibrated to the
	// profile's average degree.
	targetDegrees := powerLawDegrees(rng, p.Nodes, p.AverageDegree(), p.MaxDegree)

	// Degree-weighted samplers: global and per attribute configuration.
	globalPool := buildPool(targetDegrees, nil)
	configOf := make([]int, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		configOf[i] = int(g.Attr(i))
	}
	perConfig := make(map[int][]int32)
	for cfg := range groupConfigs(configOf) {
		cfgCopy := cfg
		perConfig[cfg] = buildPool(targetDegrees, func(i int) bool { return configOf[i] != cfgCopy })
	}

	// Phase 1.5: connectivity backbone. The paper works with the main
	// connected component of each dataset, so the generated stand-ins are
	// connected by construction: nodes are attached one at a time to a
	// degree-weighted earlier node (preferring a node with the same attribute
	// configuration with probability Homophily), forming a preferential
	// attachment tree of n−1 edges that the later phases densify.
	order := rng.Perm(p.Nodes)
	attachPool := []int32{int32(order[0])}
	for idx := 1; idx < p.Nodes; idx++ {
		u := order[idx]
		v := -1
		wantSame := rng.Float64() < p.Homophily
		for attempt := 0; attempt < 30; attempt++ {
			cand := int(attachPool[rng.Intn(len(attachPool))])
			if cand == u || g.Degree(cand) >= p.MaxDegree {
				continue
			}
			if wantSame && configOf[cand] != configOf[u] && attempt < 15 {
				continue
			}
			v = cand
			break
		}
		if v < 0 {
			v = int(attachPool[rng.Intn(len(attachPool))])
		}
		if g.AddEdge(u, v) {
			attachPool = append(attachPool, int32(u), int32(v))
		} else {
			attachPool = append(attachPool, int32(u))
		}
	}

	closureEdges := int(math.Round(p.ClosureFraction * float64(p.Edges)))
	prefEdges := p.Edges - closureEdges

	// Phase 2: homophilous preferential attachment.
	maxAttempts := 60 * (p.Edges + 1)
	attempts := 0
	for g.NumEdges() < prefEdges && attempts < maxAttempts {
		attempts++
		u := samplePool(rng, globalPool)
		var v int
		if rng.Float64() < p.Homophily {
			pool := perConfig[configOf[u]]
			if len(pool) == 0 {
				continue
			}
			v = samplePool(rng, pool)
		} else {
			v = samplePool(rng, globalPool)
		}
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if g.Degree(u) >= p.MaxDegree || g.Degree(v) >= p.MaxDegree {
			continue
		}
		g.AddEdge(u, v)
	}

	// Phase 3: triadic closure.
	attempts = 0
	for g.NumEdges() < p.Edges && attempts < maxAttempts {
		attempts++
		u := samplePool(rng, globalPool)
		nu := g.NeighborsView(u)
		if len(nu) == 0 {
			continue
		}
		k := int(nu[rng.Intn(len(nu))])
		nk := g.NeighborsView(k)
		if len(nk) == 0 {
			continue
		}
		v := int(nk[rng.Intn(len(nk))])
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if g.Degree(u) >= p.MaxDegree || g.Degree(v) >= p.MaxDegree {
			continue
		}
		g.AddEdge(u, v)
	}

	return g.Finalize()
}

// groupConfigs returns the set of attribute configurations present.
func groupConfigs(configOf []int) map[int]struct{} {
	set := make(map[int]struct{})
	for _, c := range configOf {
		set[c] = struct{}{}
	}
	return set
}

// buildPool creates a degree-weighted sampling pool (node i repeated d_i
// times), optionally excluding nodes.
func buildPool(degrees []int, exclude func(i int) bool) []int32 {
	var pool []int32
	for i, d := range degrees {
		if exclude != nil && exclude(i) {
			continue
		}
		for j := 0; j < d; j++ {
			pool = append(pool, int32(i))
		}
	}
	return pool
}

// samplePool draws one node uniformly from a pool.
func samplePool(rng *rand.Rand, pool []int32) int {
	return int(pool[rng.Intn(len(pool))])
}

// powerLawDegrees samples a degree sequence from a truncated discrete power
// law P(d) ∝ d^{−α} over [1, maxDeg], with α tuned by bisection so that the
// expected degree matches avgDegree.
func powerLawDegrees(rng *rand.Rand, n int, avgDegree float64, maxDeg int) []int {
	if maxDeg < 1 {
		maxDeg = 1
	}
	if avgDegree < 1 {
		avgDegree = 1
	}
	if avgDegree > float64(maxDeg) {
		avgDegree = float64(maxDeg)
	}
	alpha := fitPowerLawExponent(avgDegree, maxDeg)
	// Build the CDF once.
	weights := make([]float64, maxDeg+1)
	total := 0.0
	for d := 1; d <= maxDeg; d++ {
		weights[d] = math.Pow(float64(d), -alpha)
		total += weights[d]
	}
	cdf := make([]float64, maxDeg+1)
	acc := 0.0
	for d := 1; d <= maxDeg; d++ {
		acc += weights[d] / total
		cdf[d] = acc
	}
	out := make([]int, n)
	for i := range out {
		u := rng.Float64()
		d := 1
		for d < maxDeg && cdf[d] < u {
			d++
		}
		out[i] = d
	}
	return out
}

// fitPowerLawExponent finds α such that the mean of the truncated power law
// with exponent α over [1, maxDeg] equals avgDegree, by bisection over
// α ∈ [0.01, 4].
func fitPowerLawExponent(avgDegree float64, maxDeg int) float64 {
	mean := func(alpha float64) float64 {
		var num, den float64
		for d := 1; d <= maxDeg; d++ {
			w := math.Pow(float64(d), -alpha)
			num += float64(d) * w
			den += w
		}
		return num / den
	}
	lo, hi := 0.01, 4.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if mean(mid) > avgDegree {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
