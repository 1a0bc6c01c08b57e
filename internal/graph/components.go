package graph

import "sort"

// connectedComponents is the shared BFS used by both Graph and Builder; row
// must return node u's neighbour list (sortedness is not required here).
// Components are returned in descending order of size; components of equal
// size keep discovery order, which puts the one with the smaller minimum
// node ID first.
func connectedComponents(n int, row func(u int) []int32) [][]int {
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var components [][]int
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(components)
		comp[start] = id
		queue = queue[:0]
		queue = append(queue, start)
		members := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v32 := range row(u) {
				v := int(v32)
				if comp[v] < 0 {
					comp[v] = id
					members = append(members, v)
					queue = append(queue, v)
				}
			}
		}
		components = append(components, members)
	}
	sort.SliceStable(components, func(i, j int) bool {
		return len(components[i]) > len(components[j])
	})
	return components
}

// orphanedNodes is the shared implementation of OrphanedNodes.
func orphanedNodes(n int, row func(u int) []int32) []int {
	if n == 0 {
		return nil
	}
	comps := connectedComponents(n, row)
	inMain := make([]bool, n)
	for _, v := range comps[0] {
		inMain[v] = true
	}
	var orphans []int
	for i := 0; i < n; i++ {
		if !inMain[i] {
			orphans = append(orphans, i)
		}
	}
	return orphans
}

// ConnectedComponents returns the node sets of the connected components of the
// graph. Components are returned in descending order of size, ties in
// ascending order of their smallest node ID; singleton nodes form their own
// components.
func (g *Graph) ConnectedComponents() [][]int {
	return connectedComponents(len(g.attrs), g.row)
}

// OrphanedNodes returns all nodes that are not part of the largest connected
// component, in ascending order. This is the notion of "orphaned" used by the
// TriCycLe post-processing step (Algorithm 2 of the paper): the input graph is
// assumed connected, so any node outside the main component of a synthetic
// graph is an orphan, including isolated nodes and nodes in small satellite
// components. When several components share the largest size, the main one
// is the component holding the smallest node ID among them.
func (g *Graph) OrphanedNodes() []int {
	return orphanedNodes(len(g.attrs), g.row)
}

// InducedSubgraph returns the subgraph induced by the given node set, together
// with a mapping from new node IDs (0..len(nodes)-1) to the original node IDs.
// Attribute vectors are carried over. Duplicate node IDs in the input are
// collapsed.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	newID := make(map[int]int, len(nodes))
	orig := make([]int, 0, len(nodes))
	for _, v := range nodes {
		g.validNode(v)
		if _, ok := newID[v]; ok {
			continue
		}
		newID[v] = len(orig)
		orig = append(orig, v)
	}
	var edges []Edge
	vecs := make([]AttrVector, len(orig))
	for id, v := range orig {
		vecs[id] = g.attrs[v]
		for _, u32 := range g.row(v) {
			if idU, ok := newID[int(u32)]; ok && id < idU {
				edges = append(edges, Edge{U: id, V: idU})
			}
		}
	}
	sub := FromEdges(len(orig), g.w, edges).WithAttributes(g.w, vecs)
	return sub, orig
}
