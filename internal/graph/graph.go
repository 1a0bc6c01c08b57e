// Package graph provides the attributed simple-graph substrate used throughout
// the AGM-DP library.
//
// A Graph is an undirected, unweighted simple graph (no self loops, no
// multi-edges) whose nodes carry a fixed-width vector of binary attributes, as
// in Section 2.1 of Jorgensen, Yu and Cormode (SIGMOD 2016). Nodes are
// identified by dense integer IDs in [0, NumNodes). Attribute vectors are
// stored as bitmasks of up to MaxAttributes bits, which matches the paper's
// setting of w binary attributes (non-binary attributes are handled upstream
// by binarisation, exactly as the paper prescribes in Section 7).
//
// # Builder → CSR lifecycle
//
// The package follows a two-phase design. Graphs are constructed and mutated
// through a Builder, whose adjacency is kept as per-node sorted slices so that
// construction stays deterministic; Builder.Finalize then freezes the topology
// into a Graph, an immutable compressed-sparse-row (CSR) representation:
//
//	offsets   []int64 — row i occupies neighbors[offsets[i]:offsets[i+1]]
//	neighbors []int32 — concatenated neighbour lists, sorted within each row
//
// The immutability contract: a finalized Graph never changes. There are no
// mutating methods on Graph — every "derived" graph operation (Truncate,
// InducedSubgraph, WithAttributes, ...) returns a new Graph, and any Graph may
// therefore be shared freely across goroutines without synchronisation.
// Because rows are sorted, edge membership is a binary search and pairwise
// neighbourhood intersections (clustering, common-neighbour queries) run as
// cache-friendly sorted merges instead of hash probes. The triangle count and
// the maximum common-neighbour count run on a private degree-ranked view of
// the rows (see ranked.go).
//
// The package also provides the structural measurements the paper relies on:
// degree sequences, triangle and wedge counts, local and global clustering
// coefficients, connected components, induced subgraphs and the edge
// truncation operator µ(G, k) of Definition 2.
package graph

import (
	"fmt"
	"math"
)

// MaxAttributes is the largest attribute-vector width supported by Graph.
// Attribute vectors are stored as uint64 bitmasks, so 64 binary attributes
// can be represented. The paper's experiments use w = 2.
const MaxAttributes = 64

// AttrVector is a node attribute vector encoded as a bitmask: bit j holds the
// value of the j-th binary attribute. With w attributes only the low w bits
// are meaningful.
type AttrVector uint64

// Bit reports the value (0 or 1) of attribute j.
func (a AttrVector) Bit(j int) uint8 {
	return uint8((a >> uint(j)) & 1)
}

// WithBit returns a copy of the vector with attribute j set to v (0 or 1).
func (a AttrVector) WithBit(j int, v uint8) AttrVector {
	if v == 0 {
		return a &^ (1 << uint(j))
	}
	return a | (1 << uint(j))
}

// maskWidth clears the bits of a above width w.
func (a AttrVector) maskWidth(w int) AttrVector {
	if w < MaxAttributes {
		return a & ((1 << uint(w)) - 1)
	}
	return a
}

// Edge is an undirected edge between nodes U and V. The canonical form has
// U < V; use Canonical to normalise.
type Edge struct {
	U, V int
}

// Canonical returns the edge with its endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is an attributed, undirected simple graph in immutable CSR form.
//
// The zero value is not usable; construct graphs with a Builder, with New /
// FromEdges, or with the loaders in this package. A Graph never changes after
// construction, so it is safe for unrestricted concurrent use. To derive a
// modified graph, obtain a mutable copy with Builder() and finalize it again.
type Graph struct {
	w         int
	m         int
	offsets   []int64
	neighbors []int32
	attrs     []AttrVector
}

// checkDims panics when the node count or attribute width is out of range.
func checkDims(n, w int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d exceeds the int32 ID space", n))
	}
	if w < 0 || w > MaxAttributes {
		panic(fmt.Sprintf("graph: attribute width %d outside [0, %d]", w, MaxAttributes))
	}
}

// New returns an empty immutable graph with n nodes, no edges, and w binary
// attributes per node (all initialised to zero). It panics if n < 0 or w is
// outside [0, MaxAttributes]. To build a graph with edges, use NewBuilder or
// FromEdges.
func New(n, w int) *Graph {
	checkDims(n, w)
	return &Graph{
		w:       w,
		offsets: make([]int64, n+1),
		attrs:   make([]AttrVector, n),
	}
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int { return len(g.attrs) }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return g.m }

// NumAttributes returns the attribute-vector width w.
func (g *Graph) NumAttributes() int { return g.w }

// validNode panics if i is not a valid node ID.
func (g *Graph) validNode(i int) {
	if i < 0 || i >= len(g.attrs) {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", i, len(g.attrs)))
	}
}

// row returns node i's neighbour row as a shared CSR slice.
func (g *Graph) row(i int) []int32 {
	return g.neighbors[g.offsets[i]:g.offsets[i+1]]
}

// HasEdge reports whether the undirected edge {i, j} exists. Rows are sorted,
// so the check is a binary search over the smaller endpoint's row.
func (g *Graph) HasEdge(i, j int) bool {
	g.validNode(i)
	g.validNode(j)
	if i == j {
		return false
	}
	a, b := g.row(i), g.row(j)
	if len(a) > len(b) {
		a, j = b, i
	}
	return containsSorted(a, int32(j))
}

// Degree returns the degree d_i of node i.
func (g *Graph) Degree(i int) int {
	g.validNode(i)
	return int(g.offsets[i+1] - g.offsets[i])
}

// NeighborsView returns node i's sorted neighbour row as a view into the
// graph's shared CSR storage. The slice is valid for the lifetime of the
// graph and MUST NOT be modified by the caller.
func (g *Graph) NeighborsView(i int) []int32 {
	g.validNode(i)
	return g.row(i)
}

// RowOffsets returns the CSR row-offset array as a view into the graph's
// shared storage: row i occupies neighbors[RowOffsets()[i]:RowOffsets()[i+1]].
// The array is an inclusive prefix sum over node degrees — exactly the shape
// parallel.SplitWeighted consumes — so callers outside this package can shard
// per-node work by degree weight without rebuilding the prefix sum. The slice
// is valid for the lifetime of the graph and MUST NOT be modified.
func (g *Graph) RowOffsets() []int64 { return g.offsets }

// Attr returns the attribute vector of node i.
func (g *Graph) Attr(i int) AttrVector {
	g.validNode(i)
	return g.attrs[i]
}

// Attrs returns a copy of all node attribute vectors indexed by node ID.
func (g *Graph) Attrs() []AttrVector {
	out := make([]AttrVector, len(g.attrs))
	copy(out, g.attrs)
	return out
}

// WithAttributes returns a graph that shares this graph's topology but has
// attribute width w and the given attribute vectors (bits above w are
// cleared). The receiver is unchanged; the topology arrays are shared, so the
// call is O(n) regardless of the edge count. It panics if len(vecs) differs
// from the node count.
func (g *Graph) WithAttributes(w int, vecs []AttrVector) *Graph {
	checkDims(len(g.attrs), w)
	if len(vecs) != len(g.attrs) {
		panic(fmt.Sprintf("graph: %d attribute vectors for %d nodes", len(vecs), len(g.attrs)))
	}
	attrs := make([]AttrVector, len(vecs))
	for i, a := range vecs {
		attrs[i] = a.maskWidth(w)
	}
	return &Graph{w: w, m: g.m, offsets: g.offsets, neighbors: g.neighbors, attrs: attrs}
}

// Edges returns every undirected edge exactly once, in the canonical ordering
// used by the truncation operator: sorted by (min endpoint, max endpoint).
// The CSR layout already stores rows sorted, so no sorting pass is needed.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	for u := range g.attrs {
		for _, v := range g.row(u) {
			if int(v) > u {
				edges = append(edges, Edge{U: u, V: int(v)})
			}
		}
	}
	return edges
}

// ForEachEdge calls fn once per undirected edge in canonical order.
// Iteration stops early if fn returns false.
func (g *Graph) ForEachEdge(fn func(u, v int) bool) {
	for u := range g.attrs {
		for _, v := range g.row(u) {
			if int(v) > u {
				if !fn(u, int(v)) {
					return
				}
			}
		}
	}
}

// Clone returns a graph equal to g. Because graphs are immutable the clone
// shares the underlying storage; the call is O(1) and exists for API
// compatibility with the pre-CSR mutable graph.
func (g *Graph) Clone() *Graph {
	c := *g
	return &c
}

// FromEdges builds a graph with n nodes and w attributes from an edge list.
// Duplicate edges and self loops are silently dropped; an endpoint outside
// [0, n) panics. The list is packed into sorted rows in O(n + m), whatever
// its order, by the packer PackEdges uses. Without duplicates the rows
// become the CSR arrays in place. With them, the rows move to an array of
// exactly 2·m entries: the packing array keeps a slot for every duplicate,
// and the byte-budget caches charge a graph its MemoryBytes, which counts
// only its edges. The loaders and the server's uploads build their graphs
// here.
func FromEdges(n, w int, edges []Edge) *Graph {
	checkDims(n, w)
	adj, end, deg, m := packRows(n, [][]Edge{edges})
	neighbors := adj
	if 2*m < len(adj) {
		neighbors = make([]int32, 2*m)
	}
	// Close the gaps the dropped duplicates left behind their rows, so end
	// becomes the CSR offsets.
	next := int64(0)
	for u := 0; u < n; u++ {
		lo := end[u]
		end[u] = next
		next += int64(copy(neighbors[next:], adj[lo:lo+int64(deg[u])]))
	}
	end[n] = next
	return &Graph{w: w, m: m, offsets: end, neighbors: neighbors, attrs: make([]AttrVector, n)}
}

// CommonNeighbors returns |Γ(i) ∩ Γ(j)|, the number of common neighbours of i
// and j, via a sorted-merge intersection of the two rows (with a binary-search
// fallback when the degrees are heavily skewed).
func (g *Graph) CommonNeighbors(i, j int) int {
	g.validNode(i)
	g.validNode(j)
	return intersectCount(g.row(i), g.row(j))
}

// Equal reports whether g and h have identical node counts, attribute widths,
// edge sets and attribute assignments. It is primarily intended for tests.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.w != h.w || g.m != h.m {
		return false
	}
	for i := range g.attrs {
		if g.attrs[i] != h.attrs[i] {
			return false
		}
		if g.offsets[i+1]-g.offsets[i] != h.offsets[i+1]-h.offsets[i] {
			return false
		}
	}
	for k := range g.neighbors {
		if g.neighbors[k] != h.neighbors[k] {
			return false
		}
	}
	return true
}

// containsSorted reports whether v occurs in the sorted row.
func containsSorted(row []int32, v int32) bool {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == v
}

// skewFactor is the degree ratio beyond which intersectCount switches from a
// linear merge to binary-searching the smaller row's entries in the larger
// row: d_small · log2(d_large) beats d_small + d_large when the rows are
// lopsided.
const skewFactor = 16

// intersectCount returns the size of the intersection of two sorted rows.
func intersectCount(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	cn := 0
	if len(b) > skewFactor*len(a) {
		for _, v := range a {
			// Shrink the search window as matches advance: entries of a are
			// ascending, so earlier prefix of b can be discarded.
			lo, hi := 0, len(b)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(b) && b[lo] == v {
				cn++
				b = b[lo+1:]
			} else {
				b = b[lo:]
			}
			if len(b) == 0 {
				break
			}
		}
		return cn
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i], b[j]
		if ai == bj {
			cn++
			i++
			j++
		} else if ai < bj {
			i++
		} else {
			j++
		}
	}
	return cn
}
