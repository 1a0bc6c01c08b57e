package graph

// Truncate applies the edge truncation operator µ(G, k) of Definition 2
// (originally from Blocki et al., restricted sensitivity): edges are visited
// in the canonical ordering (sorted by (min endpoint, max endpoint)) and an
// edge is deleted if, at the time it is processed, either endpoint still has
// degree greater than k. The result is a k-bounded graph: every node has
// degree at most k.
//
// The receiver is immutable and unchanged; a new graph is returned. The
// surviving edges come from ForEachTruncatedEdge and are packed by FromEdges.
// Attribute vectors are preserved. Truncate panics if k < 0.
func (g *Graph) Truncate(k int) *Graph {
	kept := make([]Edge, 0, g.m)
	g.ForEachTruncatedEdge(k, func(u, v int) {
		kept = append(kept, Edge{U: u, V: v})
	})
	out := FromEdges(len(g.attrs), g.w, kept)
	copy(out.attrs, g.attrs)
	return out
}

// ForEachTruncatedEdge calls fn(u, v), u < v, once for every edge that
// µ(G, k) keeps, in canonical order, without building the truncated graph:
// one canonical pass simulates the sequential deletions on a running-degree
// array. It panics if k < 0.
func (g *Graph) ForEachTruncatedEdge(k int, fn func(u, v int)) {
	if k < 0 {
		panic("graph: negative truncation parameter")
	}
	deg := make([]int64, len(g.attrs))
	for i := range deg {
		deg[i] = g.offsets[i+1] - g.offsets[i]
	}
	bound := int64(k)
	for u := range g.attrs {
		for _, v32 := range g.row(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			if deg[u] > bound || deg[v] > bound {
				deg[u]--
				deg[v]--
				continue
			}
			fn(u, v)
		}
	}
}
