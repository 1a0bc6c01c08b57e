package graph_test

// This file pins the Builder→CSR lifecycle to the pre-CSR mutable graph
// semantics: mapAdjGraph is a deliberately naive reimplementation of the old
// []map[int]struct{} adjacency surface (duplicate edges dropped, self loops
// ignored, attribute bits masked to the declared width, canonical edge
// ordering produced by sorting). The property test drives both
// implementations with the same random operation sequence and requires the
// finalized CSR graph to agree edge-for-edge and attr-for-attr.

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"agmdp/internal/graph"
)

// mapAdjGraph mirrors the old mutable map-adjacency Graph API surface.
type mapAdjGraph struct {
	w     int
	m     int
	adj   []map[int]struct{}
	attrs []graph.AttrVector
}

func newMapAdjGraph(n, w int) *mapAdjGraph {
	g := &mapAdjGraph{
		w:     w,
		adj:   make([]map[int]struct{}, n),
		attrs: make([]graph.AttrVector, n),
	}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

func (g *mapAdjGraph) addEdge(i, j int) bool {
	if i == j {
		return false
	}
	if _, ok := g.adj[i][j]; ok {
		return false
	}
	g.adj[i][j] = struct{}{}
	g.adj[j][i] = struct{}{}
	g.m++
	return true
}

func (g *mapAdjGraph) removeEdge(i, j int) bool {
	if _, ok := g.adj[i][j]; !ok {
		return false
	}
	delete(g.adj[i], j)
	delete(g.adj[j], i)
	g.m--
	return true
}

func (g *mapAdjGraph) setAttr(i int, a graph.AttrVector) {
	if g.w < graph.MaxAttributes {
		a &= (1 << uint(g.w)) - 1
	}
	g.attrs[i] = a
}

// edges returns the edge set in canonical (min, max) order, produced the old
// way: collect from the maps, then sort.
func (g *mapAdjGraph) edges() []graph.Edge {
	out := make([]graph.Edge, 0, g.m)
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, graph.Edge{U: u, V: v})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

func (g *mapAdjGraph) commonNeighbors(i, j int) int {
	a, b := g.adj[i], g.adj[j]
	if len(a) > len(b) {
		a, b = b, a
	}
	cn := 0
	for v := range a {
		if _, ok := b[v]; ok {
			cn++
		}
	}
	return cn
}

func (g *mapAdjGraph) triangles() int64 {
	var total int64
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				total += int64(g.commonNeighbors(u, v))
			}
		}
	}
	return total / 3
}

// maxCommonNeighbors is the old per-node map-churn two-hop enumeration, the
// reference the degree-ranked scan is checked against.
func (g *mapAdjGraph) maxCommonNeighbors() int {
	maxCN := 0
	counts := make(map[int]int)
	for u := range g.adj {
		for k := range counts {
			delete(counts, k)
		}
		for w := range g.adj[u] {
			for v := range g.adj[w] {
				if v > u {
					counts[v]++
				}
			}
		}
		for _, c := range counts {
			if c > maxCN {
				maxCN = c
			}
		}
	}
	return maxCN
}

// agreesWith reports whether the finalized CSR graph matches the reference
// edge-for-edge (in canonical order) and attr-for-attr.
func agreesWith(csr *graph.Graph, ref *mapAdjGraph) bool {
	if csr.NumNodes() != len(ref.adj) || csr.NumEdges() != ref.m || csr.NumAttributes() != ref.w {
		return false
	}
	want := ref.edges()
	got := csr.Edges()
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	for i := range ref.attrs {
		if csr.Attr(i) != ref.attrs[i] {
			return false
		}
	}
	return true
}

// Property: a Builder driven by an arbitrary sequence of AddEdge / RemoveEdge
// / SetAttr operations (including self loops, duplicates and out-of-order
// endpoints) finalizes into exactly the graph the old mutable API would have
// produced, and the CSR rewrites of Triangles / CommonNeighbors /
// MaxCommonNeighbors agree with their map-based ancestors.
func TestBuilderMatchesMapAdjacencyReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		w := rng.Intn(5)
		b := graph.NewBuilder(n, w)
		ref := newMapAdjGraph(n, w)
		ops := 150 + rng.Intn(150)
		for k := 0; k < ops; k++ {
			u, v := rng.Intn(n), rng.Intn(n) // self loops included on purpose
			switch rng.Intn(4) {
			case 0, 1: // bias toward insertion so the graphs stay non-trivial
				if b.AddEdge(u, v) != ref.addEdge(u, v) {
					return false
				}
			case 2:
				if b.RemoveEdge(u, v) != ref.removeEdge(u, v) {
					return false
				}
			case 3:
				a := graph.AttrVector(rng.Uint64())
				b.SetAttr(u, a)
				ref.setAttr(u, a)
			}
		}
		g := b.Finalize()
		if !agreesWith(g, ref) {
			return false
		}
		if g.Triangles() != ref.triangles() {
			return false
		}
		if tri, cn := g.TrianglesAndMaxCommonNeighbors(); tri != ref.triangles() || cn != ref.maxCommonNeighbors() {
			return false
		}
		u, v := rng.Intn(n), rng.Intn(n)
		return g.CommonNeighbors(u, v) == ref.commonNeighbors(u, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: FromEdges bulk construction obeys the same contract as the old
// incremental API for messy edge lists (duplicates in both orientations and
// self loops).
func TestFromEdgesMatchesMapAdjacencyReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		edges := make([]graph.Edge, 80)
		ref := newMapAdjGraph(n, 0)
		for i := range edges {
			e := graph.Edge{U: rng.Intn(n), V: rng.Intn(n)}
			edges[i] = e
			ref.addEdge(e.U, e.V)
		}
		return agreesWith(graph.FromEdges(n, 0, edges), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// goldenGraph is the triangle-with-tail fixture with attributes set on nodes
// 0 and 3.
func goldenGraph() *graph.Graph {
	b := graph.NewBuilder(5, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.SetAttr(0, 3)
	b.SetAttr(3, 1)
	return b.Finalize()
}

// goldenText is the exact "agmdp graph" serialization of goldenGraph. The
// bytes are pinned so that accidental format drift (which would silently
// orphan previously saved graphs) fails loudly.
const goldenText = `# agmdp graph
nodes 5
attrs 2
node 0 1 1
node 1 0 0
node 2 0 0
node 3 1 0
node 4 0 0
edge 0 1
edge 0 2
edge 1 2
edge 2 3
edge 3 4
`

func TestGraphIOGoldenRoundTrip(t *testing.T) {
	g := goldenGraph()
	var buf bytes.Buffer
	if err := g.WriteGraph(&buf); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	if buf.String() != goldenText {
		t.Fatalf("WriteGraph output drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.String(), goldenText)
	}
	back, err := graph.ReadGraph(strings.NewReader(goldenText), math.MaxInt32)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if !back.Equal(g) {
		t.Fatal("golden round trip lost information")
	}
}

// goldenBinary is the exact AGMDPCSR snapshot of goldenGraph, written out by
// hand section by section (all little-endian). Every stored .csr file and
// its content address depend on this layout, and no second encoder
// cross-checks WriteBinaryTo, so the bytes themselves are pinned.
var goldenBinary = hexBytes(
	"41474d4450435352",                    // magic "AGMDPCSR"
	"01000000 01000000 02000000 00000000", // version 1, flags 1 (attrs present), width 2, reserved
	"0500000000000000 0500000000000000",   // n = 5, m = 5
	// offsets, n+1 int64: 0 2 4 7 9 10
	"0000000000000000 0200000000000000 0400000000000000",
	"0700000000000000 0900000000000000 0a00000000000000",
	// neighbors, 2m int32: rows 0:[1 2] 1:[0 2] 2:[0 1 3] 3:[2 4] 4:[3]
	"01000000 02000000 00000000 02000000 00000000",
	"01000000 03000000 02000000 04000000 03000000",
	// attrs, n uint64: 3 0 0 1 0
	"0300000000000000 0000000000000000 0000000000000000",
	"0100000000000000 0000000000000000",
)

// hexBytes decodes space-separated hex fragments into one byte slice.
func hexBytes(parts ...string) []byte {
	b, err := hex.DecodeString(strings.ReplaceAll(strings.Join(parts, ""), " ", ""))
	if err != nil {
		panic(err)
	}
	return b
}

func TestGraphBinaryGolden(t *testing.T) {
	g := goldenGraph()
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, g); err != nil {
		t.Fatalf("WriteBinaryTo: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), goldenBinary) {
		t.Fatalf("WriteBinaryTo output drifted from the golden snapshot:\ngot  %x\nwant %x", buf.Bytes(), goldenBinary)
	}
	back, err := graph.DecodeBinary(goldenBinary)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !back.Equal(g) {
		t.Fatal("golden snapshot decodes to a different graph")
	}
}
