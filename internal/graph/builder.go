package graph

import (
	"fmt"
	"sort"
)

// Builder is the mutable construction phase of a Graph. It keeps adjacency as
// per-node sorted int32 slices, which makes every operation deterministic (no
// map iteration anywhere), keeps neighbour scans cache-friendly during
// generation, and lets Finalize pack the rows into CSR form with a single
// concatenation.
//
// A Builder supports the full mutation surface of the pre-CSR Graph (AddEdge,
// RemoveEdge, SetAttr) plus the read queries the structural generators need
// while rewiring (HasEdge, Degree, Neighbors, CommonNeighbors, Triangles,
// OrphanedNodes). It is not safe for concurrent use. Finalize does not
// invalidate the Builder: it copies, so a Builder can be finalized repeatedly
// at different construction stages.
type Builder struct {
	w     int
	m     int
	rows  [][]int32
	attrs []AttrVector
}

// NewBuilder returns a Builder for a graph with n nodes, no edges and w binary
// attributes per node. It panics if n < 0 or w is outside [0, MaxAttributes].
func NewBuilder(n, w int) *Builder {
	checkDims(n, w)
	return &Builder{
		w:     w,
		rows:  make([][]int32, n),
		attrs: make([]AttrVector, n),
	}
}

// PackEdges returns a Builder with n nodes, no attributes and every edge of
// the given lists. Duplicate edges, within a list or across lists and
// in either orientation, and self loops are dropped, so the rows and the edge
// count equal those of a Builder fed the same edges one AddEdge at a time,
// at O(n + m) cost with no comparison sort (see packRows). PackEdges panics
// on an endpoint outside [0, n) and, like NewBuilder, on a bad n.
//
// The rows are slices of one shared array, each capped at its own slots, so
// a later AddEdge that outgrows a row moves it instead of writing into the
// next row.
func PackEdges(n int, lists ...[]Edge) *Builder {
	b := NewBuilder(n, 0)
	adj, end, deg, m := packRows(n, lists)
	for u := range b.rows {
		b.rows[u] = adj[end[u] : end[u]+int64(deg[u]) : end[u+1]]
	}
	b.m = m
	return b
}

// packRows packs the edges of the lists into sorted, duplicate-free rows
// over n nodes and returns them with the edge count m. Row u is
// adj[end[u] : end[u]+deg[u]]; its slots run on to end[u+1], one for each
// edge that names u, duplicates included. It panics on an endpoint outside
// [0, n).
//
// It works in three passes, with no comparison sort. The first groups every
// edge under its smaller endpoint. The second walks the groups in ascending
// order and appends each node to its larger neighbours' rows, so each row
// then holds its smaller neighbours in order; a duplicate edge lands next to
// its twin and is dropped there. The third walks the rows in ascending order
// and appends each node to its smaller neighbours' rows, which completes
// every row, still sorted.
func packRows(n int, lists [][]Edge) (adj []int32, end []int64, deg []int32, m int) {
	end = make([]int64, n+1)
	for _, edges := range lists {
		for _, e := range edges {
			if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0, %d)", e.U, e.V, n))
			}
			if e.U != e.V {
				end[e.U+1]++
				end[e.V+1]++
			}
		}
	}
	for u := 0; u < n; u++ {
		end[u+1] += end[u]
	}
	adj = make([]int32, end[n])

	// Pass 1: group each edge's larger endpoint under its smaller one, at the
	// tail of the smaller endpoint's slots: group u is adj[group[u]:end[u+1]].
	group := make([]int64, n)
	copy(group, end[1:])
	for _, edges := range lists {
		for _, e := range edges {
			e = e.Canonical()
			if e.U != e.V {
				group[e.U]--
				adj[group[e.U]] = int32(e.V)
			}
		}
	}

	// Pass 2: row v's smaller neighbours fill its slots from the front. They
	// never reach the tail holding v's own group: v has one slot per edge
	// that names it, at either end.
	deg = make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range adj[group[u]:end[u+1]] {
			next := end[v] + int64(deg[v])
			if deg[v] > 0 && adj[next-1] == int32(u) {
				continue // a duplicate of the edge just appended
			}
			adj[next] = int32(u)
			deg[v]++
			m++
		}
	}

	// Pass 3: every group has been read, so larger neighbours may overwrite
	// them. Row v holds exactly its smaller neighbours when v's turn comes.
	for v := 0; v < n; v++ {
		for _, u := range adj[end[v] : end[v]+int64(deg[v])] {
			adj[end[u]+int64(deg[u])] = int32(v)
			deg[u]++
		}
	}
	return adj, end, deg, m
}

// Builder returns a mutable copy of the graph: same nodes, edges and
// attributes. Mutating the Builder never affects the source graph.
func (g *Graph) Builder() *Builder {
	b := &Builder{
		w:     g.w,
		m:     g.m,
		rows:  make([][]int32, len(g.attrs)),
		attrs: make([]AttrVector, len(g.attrs)),
	}
	copy(b.attrs, g.attrs)
	for i := range b.rows {
		row := g.row(i)
		b.rows[i] = append(make([]int32, 0, len(row)), row...)
	}
	return b
}

// NumNodes returns the number of nodes n.
func (b *Builder) NumNodes() int { return len(b.rows) }

// NumEdges returns the number of undirected edges m.
func (b *Builder) NumEdges() int { return b.m }

// NumAttributes returns the attribute-vector width w.
func (b *Builder) NumAttributes() int { return b.w }

// validNode panics if i is not a valid node ID.
func (b *Builder) validNode(i int) {
	if i < 0 || i >= len(b.rows) {
		panic(fmt.Sprintf("graph: node %d out of range [0, %d)", i, len(b.rows)))
	}
}

// insertSorted inserts v into the sorted row, reporting whether it was absent.
func insertSorted(row []int32, v int32) ([]int32, bool) {
	idx := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	if idx < len(row) && row[idx] == v {
		return row, false
	}
	row = append(row, 0)
	copy(row[idx+1:], row[idx:])
	row[idx] = v
	return row, true
}

// removeSorted deletes v from the sorted row, reporting whether it was present.
func removeSorted(row []int32, v int32) ([]int32, bool) {
	idx := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	if idx >= len(row) || row[idx] != v {
		return row, false
	}
	return append(row[:idx], row[idx+1:]...), true
}

// AddEdge inserts the undirected edge {i, j}. It returns true if the edge was
// added and false if it already existed or i == j (self loops are ignored,
// keeping the graph simple).
func (b *Builder) AddEdge(i, j int) bool {
	b.validNode(i)
	b.validNode(j)
	if i == j {
		return false
	}
	row, added := insertSorted(b.rows[i], int32(j))
	if !added {
		return false
	}
	b.rows[i] = row
	b.rows[j], _ = insertSorted(b.rows[j], int32(i))
	b.m++
	return true
}

// RemoveEdge deletes the undirected edge {i, j} if present and reports whether
// an edge was removed.
func (b *Builder) RemoveEdge(i, j int) bool {
	b.validNode(i)
	b.validNode(j)
	if i == j {
		return false
	}
	row, removed := removeSorted(b.rows[i], int32(j))
	if !removed {
		return false
	}
	b.rows[i] = row
	b.rows[j], _ = removeSorted(b.rows[j], int32(i))
	b.m--
	return true
}

// HasEdge reports whether the undirected edge {i, j} exists.
func (b *Builder) HasEdge(i, j int) bool {
	b.validNode(i)
	b.validNode(j)
	if i == j {
		return false
	}
	a, c := b.rows[i], b.rows[j]
	if len(a) > len(c) {
		a, j = c, i
	}
	return containsSorted(a, int32(j))
}

// Degree returns the degree d_i of node i.
func (b *Builder) Degree(i int) int {
	b.validNode(i)
	return len(b.rows[i])
}

// NeighborsView returns node i's sorted neighbour row as a view into the
// builder's storage. The view is invalidated by the next mutation of node i's
// row and MUST NOT be modified by the caller.
func (b *Builder) NeighborsView(i int) []int32 {
	b.validNode(i)
	return b.rows[i]
}

// Attr returns the attribute vector of node i.
func (b *Builder) Attr(i int) AttrVector {
	b.validNode(i)
	return b.attrs[i]
}

// SetAttr assigns the attribute vector of node i. Bits above the builder's
// attribute width are cleared.
func (b *Builder) SetAttr(i int, a AttrVector) {
	b.validNode(i)
	b.attrs[i] = a.maskWidth(b.w)
}

// Edges returns every undirected edge exactly once in canonical order
// (sorted by (min endpoint, max endpoint)).
func (b *Builder) Edges() []Edge {
	edges := make([]Edge, 0, b.m)
	for u := range b.rows {
		for _, v := range b.rows[u] {
			if int(v) > u {
				edges = append(edges, Edge{U: u, V: int(v)})
			}
		}
	}
	return edges
}

// ForEachEdge calls fn once per undirected edge in canonical order.
// Iteration stops early if fn returns false. fn must not mutate the builder.
func (b *Builder) ForEachEdge(fn func(u, v int) bool) {
	for u := range b.rows {
		for _, v := range b.rows[u] {
			if int(v) > u {
				if !fn(u, int(v)) {
					return
				}
			}
		}
	}
}

// CommonNeighbors returns |Γ(i) ∩ Γ(j)| via sorted-merge intersection.
func (b *Builder) CommonNeighbors(i, j int) int {
	b.validNode(i)
	b.validNode(j)
	return intersectCount(b.rows[i], b.rows[j])
}

// Triangles returns n∆, the number of distinct triangles, counted by
// Graph.Triangles on a frozen copy, so builders and graphs share the one
// degree-ranked kernel.
func (b *Builder) Triangles() int64 { return b.Finalize().Triangles() }

// OrphanedNodes returns all nodes outside the largest connected component,
// matching Graph.OrphanedNodes; it is used by the TriCycLe post-processing
// pass while the synthetic graph is still under construction.
func (b *Builder) OrphanedNodes() []int {
	return orphanedNodes(len(b.rows), func(u int) []int32 { return b.rows[u] })
}

// Clone returns an independent deep copy of the builder.
func (b *Builder) Clone() *Builder {
	c := &Builder{
		w:     b.w,
		m:     b.m,
		rows:  make([][]int32, len(b.rows)),
		attrs: make([]AttrVector, len(b.attrs)),
	}
	copy(c.attrs, b.attrs)
	for i, row := range b.rows {
		c.rows[i] = append(make([]int32, 0, len(row)), row...)
	}
	return c
}

// Finalize freezes the current state into an immutable CSR Graph. The rows
// are already sorted, so finalization is a single O(n + m) concatenation. The
// builder remains valid and may keep mutating; later changes never affect the
// returned graph.
func (b *Builder) Finalize() *Graph {
	n := len(b.rows)
	g := &Graph{
		w:       b.w,
		m:       b.m,
		offsets: make([]int64, n+1),
		attrs:   make([]AttrVector, n),
	}
	copy(g.attrs, b.attrs)
	total := 0
	for i, row := range b.rows {
		total += len(row)
		g.offsets[i+1] = int64(total)
	}
	g.neighbors = make([]int32, 0, total)
	for _, row := range b.rows {
		g.neighbors = append(g.neighbors, row...)
	}
	return g
}
