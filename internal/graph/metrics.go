package graph

import "sort"

// DegreeSequence returns the multiset of node degrees sorted in non-decreasing
// order, i.e. the unordered degree sequence S used by the paper's structural
// models.
func (g *Graph) DegreeSequence() []int {
	out := g.Degrees()
	sort.Ints(out)
	return out
}

// MaxDegree returns the largest node degree d_max (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for i := range g.attrs {
		if d := int(g.offsets[i+1] - g.offsets[i]); d > max {
			max = d
		}
	}
	return max
}

// AverageDegree returns the mean node degree 2m/n (0 for an empty graph).
func (g *Graph) AverageDegree() float64 {
	if len(g.attrs) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.attrs))
}

// AverageLocalClustering returns C̄, the mean of the local clustering
// coefficients over all nodes.
func (g *Graph) AverageLocalClustering() float64 {
	if len(g.attrs) == 0 {
		return 0
	}
	cc := g.LocalClusteringAll()
	sum := 0.0
	for _, c := range cc {
		sum += c
	}
	return sum / float64(len(cc))
}

// GlobalClustering returns the global clustering coefficient (transitivity)
// C(G) = 3·n∆ / n_W. It returns 0 when the graph has no wedges.
func (g *Graph) GlobalClustering() float64 {
	w := g.Wedges()
	if w == 0 {
		return 0
	}
	return 3 * float64(g.Triangles()) / float64(w)
}

// Summary bundles the headline statistics reported in Table 6 of the paper.
type Summary struct {
	Nodes              int
	Edges              int
	MaxDegree          int
	AverageDegree      float64
	Triangles          int64
	AvgLocalClustering float64
	GlobalClustering   float64
	Attributes         int
}
