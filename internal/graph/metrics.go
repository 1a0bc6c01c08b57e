package graph

import "sort"

// Degrees returns the degree of every node, indexed by node ID. Large graphs
// fill the slice in parallel shards (DegreesWith) with identical results.
func (g *Graph) Degrees() []int {
	return g.DegreesWith(0)
}

// DegreeSequence returns the multiset of node degrees sorted in non-decreasing
// order, i.e. the unordered degree sequence S used by the paper's structural
// models.
func (g *Graph) DegreeSequence() []int {
	return g.DegreeSequenceWith(0)
}

// DegreeSequenceWith is DegreeSequence with an explicit worker count for the
// degree-extraction pass (≤ 0 selects the process default); the sort stays
// sequential. Results are identical for every worker count.
func (g *Graph) DegreeSequenceWith(workers int) []int {
	out := g.DegreesWith(workers)
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

// Triangles returns n∆, the number of distinct triangles in the graph. Nodes
// are ranked by (degree descending, ID ascending) and each triangle is found
// exactly once, at its lightest corner u: u's heavier neighbours are marked,
// and the heavier prefix of each marked neighbour's row is probed for marks.
// A node's heavier neighbours number O(√m), so the probes cost O(m^{3/2})
// total even on heavy-tailed graphs where hub rows would otherwise dominate,
// and no sorted merge is needed.
//
// On graphs above the sharding threshold the counting pass runs on the shared
// worker pool (see TrianglesWith); the count is the same for every worker
// count.
func (g *Graph) Triangles() int64 {
	return g.TrianglesWith(0)
}

// TrianglesAt returns the number of triangles that include node i, i.e. the
// number of edges among the neighbours of i. Each such edge {u, v} is found
// twice (once from u's row, once from v's), hence the halving.
func (g *Graph) TrianglesAt(i int) int64 {
	g.validNode(i)
	ri := g.row(i)
	var cnt int64
	for _, v := range ri {
		cnt += int64(intersectCount(ri, g.row(int(v))))
	}
	return cnt / 2
}

// Wedges returns n_W, the number of length-two paths (wedges) in the graph:
// Σ_i d_i·(d_i−1)/2. Large graphs shard the sum over the worker pool
// (WedgesWith); the result is exact for every worker count.
func (g *Graph) Wedges() int64 {
	return g.WedgesWith(0)
}

// wedgesSeq is the sequential wedge count.
func (g *Graph) wedgesSeq() int64 {
	var total int64
	for i := range g.attrs {
		d := g.offsets[i+1] - g.offsets[i]
		total += d * (d - 1) / 2
	}
	return total
}

// LocalClustering returns the local clustering coefficient C_i of node i:
// the fraction of pairs of neighbours of i that are themselves connected.
// Nodes of degree < 2 have coefficient 0 by convention.
func (g *Graph) LocalClustering(i int) float64 {
	g.validNode(i)
	d := g.Degree(i)
	if d < 2 {
		return 0
	}
	t := g.TrianglesAt(i)
	return 2 * float64(t) / (float64(d) * float64(d-1))
}

// LocalClusteringAll returns the local clustering coefficient of every node,
// indexed by node ID. It shares work across nodes by counting triangles along
// edges once, so it is much cheaper than calling LocalClustering per node on
// large graphs. Above the sharding threshold the edge pass runs on the shared
// worker pool with per-worker counter arrays (LocalClusteringAllWith); the
// coefficients are bit-identical for every worker count.
func (g *Graph) LocalClusteringAll() []float64 {
	return g.LocalClusteringAllWith(0)
}

// localClusteringAllSeq is the sequential single-counter implementation.
func (g *Graph) localClusteringAllSeq() []float64 {
	triPerNode := make([]int64, len(g.attrs))
	for u := range g.attrs {
		// Every common neighbour w of u and v closes a triangle {u,v,w};
		// credit it to w. Each triangle is credited to each of its three
		// corners exactly once (when the opposite edge is processed).
		g.creditTrianglesAlongEdges(u, triPerNode)
	}
	out := make([]float64, len(g.attrs))
	for i := range g.attrs {
		d := g.Degree(i)
		if d < 2 {
			continue
		}
		out[i] = 2 * float64(triPerNode[i]) / (float64(d) * float64(d-1))
	}
	return out
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

// DegreeHistogram returns a map from degree value to the number of nodes with
// that degree. Large graphs shard the tally over the worker pool
// (DegreeHistogramWith) with identical results.
func (g *Graph) DegreeHistogram() map[int]int {
	return g.DegreeHistogramWith(0)
}

// degreeHistogramSeq is the sequential histogram tally.
func (g *Graph) degreeHistogramSeq() map[int]int {
	h := make(map[int]int)
	for i := range g.attrs {
		h[g.Degree(i)]++
	}
	return h
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

// Summarize computes the Table 6 statistics for the graph. The triangle,
// wedge and clustering passes run sharded on the worker pool for large graphs
// (SummarizeWith) and the triangle count is computed once and shared between
// the statistics that need it.
func (g *Graph) Summarize() Summary {
	return g.SummarizeWith(0)
}
