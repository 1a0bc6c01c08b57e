package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// randomEdgeLists returns up to four edge lists over n nodes with the messy
// shapes a multi-stream merge or an upload can carry: duplicates within and
// across lists, both orientations, self loops, empty lists, and one hub node
// that many edges name.
func randomEdgeLists(rng *rand.Rand, n int) [][]Edge {
	lists := make([][]Edge, rng.Intn(5))
	if n == 0 {
		return lists
	}
	hub := rng.Intn(n)
	for i := range lists {
		if rng.Intn(4) == 0 {
			continue // an empty list
		}
		edges := make([]Edge, 0, 3*n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			e := Edge{U: rng.Intn(n), V: rng.Intn(n)}
			switch rng.Intn(6) {
			case 0:
				e.V = e.U // a self loop
			case 1:
				e.U = hub
			case 2:
				if len(edges) > 0 { // a duplicate within the list
					e = edges[rng.Intn(len(edges))]
				}
			case 3:
				if i > 0 && len(lists[i-1]) > 0 { // a duplicate across lists
					e = lists[i-1][rng.Intn(len(lists[i-1]))]
				}
			}
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			edges = append(edges, e)
		}
		lists[i] = edges
	}
	return lists
}

// addEdgeReference builds the Builder that PackEdges must match: every edge
// of every list, in order, through AddEdge.
func addEdgeReference(n int, lists [][]Edge) *Builder {
	b := NewBuilder(n, 0)
	for _, edges := range lists {
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
	}
	return b
}

// sameBuilder reports the first difference between two builders' rows, edge
// counts and finalized AGMDPCSR bytes, or "" when there is none.
func sameBuilder(got, want *Builder) string {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("NumNodes = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("NumEdges = %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for u := 0; u < got.NumNodes(); u++ {
		if g, w := got.NeighborsView(u), want.NeighborsView(u); !slices.Equal(g, w) {
			return fmt.Sprintf("row %d = %v, want %v", u, g, w)
		}
	}
	if !bytes.Equal(binaryBytes(got.Finalize()), binaryBytes(want.Finalize())) {
		return "finalized bytes differ"
	}
	return ""
}

// binaryBytes returns the AGMDPCSR encoding of g.
func binaryBytes(g *Graph) []byte {
	var buf bytes.Buffer
	if err := WriteBinaryTo(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestPackEdgesMatchesAddEdge compares the packer, and FromEdges on the
// lists joined into one, with one AddEdge per edge over random lists,
// including n = 0 and n = 1.
func TestPackEdgesMatchesAddEdge(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := int(seed % 40)
		lists := randomEdgeLists(rng, n)
		want := addEdgeReference(n, lists)
		if diff := sameBuilder(PackEdges(n, lists...), want); diff != "" {
			t.Fatalf("seed %d, n = %d: %s", seed, n, diff)
		}
		var joined []Edge
		for _, edges := range lists {
			joined = append(joined, edges...)
		}
		got := FromEdges(n, 0, joined)
		if !got.Equal(want.Finalize()) || !bytes.Equal(binaryBytes(got), binaryBytes(want.Finalize())) {
			t.Fatalf("seed %d, n = %d: FromEdges differs from the AddEdge reference", seed, n)
		}
	}
}

// TestPackEdgesRowsStayInTheirSlots grows every packed row past its capacity
// with AddEdge, then shrinks and regrows it with RemoveEdge and AddEdge,
// checking after each step that every row still matches a reference put
// through the same steps. A row whose capacity reached into its neighbour's
// slots would overwrite that neighbour here.
func TestPackEdgesRowsStayInTheirSlots(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		lists := randomEdgeLists(rng, n)
		got, want := PackEdges(n, lists...), addEdgeReference(n, lists)
		step := func(what string, u, v int, add bool) {
			t.Helper()
			if add {
				got.AddEdge(u, v)
				want.AddEdge(u, v)
			} else {
				got.RemoveEdge(u, v)
				want.RemoveEdge(u, v)
			}
			if diff := sameBuilder(got, want); diff != "" {
				t.Fatalf("seed %d, %s {%d,%d}: %s", seed, what, u, v, diff)
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range rng.Perm(n) {
				step("grow", u, v, true)
			}
			for _, v := range rng.Perm(n)[:n/2] {
				step("shrink", u, v, false)
			}
			for _, v := range rng.Perm(n)[:n/4] {
				step("regrow", u, v, true)
			}
		}
	}
}

// TestFromEdgesHoldsOnlyItsEdges checks that a graph built from a list with
// duplicates keeps no room for them: the heap it retains matches
// MemoryBytes, which byte-budget caches charge, and that figure equals the
// one for the same graph built without the duplicates. The packing array has
// a slot for every endpoint of the input, duplicates included; a graph that
// kept it would retain far more than it is charged.
func TestFromEdgesHoldsOnlyItsEdges(t *testing.T) {
	const n = 1 << 17
	path := make([]Edge, n-1)
	for i := range path {
		path[i] = Edge{U: i, V: i + 1}
	}
	bothWays := slices.Clone(path)
	for _, e := range path {
		bothWays = append(bothWays, Edge{U: e.V, V: e.U})
	}
	repeated := make([]Edge, 1<<18)
	for i := range repeated {
		repeated[i] = Edge{U: 0, V: 1}
	}
	for _, tc := range []struct {
		name  string
		edges []Edge
		want  []Edge
	}{
		{"distinct", path, path},
		{"both orientations", bothWays, path},
		{"one edge repeated", repeated, repeated[:1]},
	} {
		g, retained := retainedBytes(func() *Graph { return FromEdges(n, 0, tc.edges) })
		runtime.KeepAlive(tc.edges)
		want := FromEdges(n, 0, tc.want)
		if !g.Equal(want) || g.MemoryBytes() != want.MemoryBytes() {
			t.Fatalf("%s: graph or MemoryBytes %d differs from the one built without duplicates (%d)",
				tc.name, g.MemoryBytes(), want.MemoryBytes())
		}
		if slack := retained - g.MemoryBytes(); slack > 128<<10 {
			t.Fatalf("%s: graph retains %d heap bytes, MemoryBytes = %d", tc.name, retained, g.MemoryBytes())
		}
	}
}

// retainedBytes returns build's graph and the live heap it added.
func retainedBytes(build func() *Graph) (*Graph, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return g, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestFromEdgesPanicsOutOfRange checks that FromEdges and PackEdges refuse
// an endpoint outside [0, n), in either position and in any list.
func TestFromEdgesPanicsOutOfRange(t *testing.T) {
	for _, e := range []Edge{{-1, 0}, {0, -1}, {0, 4}, {4, 0}, {4, 4}} {
		t.Run(fmt.Sprintf("FromEdges{%d,%d}", e.U, e.V), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			FromEdges(4, 0, []Edge{{0, 1}, e})
		})
		t.Run(fmt.Sprintf("PackEdges{%d,%d}", e.U, e.V), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			PackEdges(4, []Edge{{0, 1}}, nil, []Edge{{2, 3}, e})
		})
	}
}
