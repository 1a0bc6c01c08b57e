package graph

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := buildTriangleWithTail()
	in := "# triangle with tail\n0 1\n0 2\n1 2\n2 3\n3 4\n"
	back, err := ReadEdgeList(strings.NewReader(in), math.MaxInt32)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d nodes/%d edges, want %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	g.ForEachEdge(func(u, v int) bool {
		if !back.HasEdge(u, v) {
			t.Fatalf("edge {%d,%d} lost in round trip", u, v)
		}
		return true
	})
}

func TestReadEdgeListSkipsCommentsAndBlankLines(t *testing.T) {
	in := "# comment\n% another comment\n\n0 1\n1 2 extra-ignored\n"
	g, err := ReadEdgeList(strings.NewReader(in), math.MaxInt32)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes / %d edges, want 3 / 2", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if g, err := ReadEdgeList(strings.NewReader("0 4\n"), 5); err != nil || g.NumNodes() != 5 {
		t.Fatalf("IDs at the limit: graph %v, error %v", g, err)
	}
	cases := []struct {
		name  string
		input string
		limit int
	}{
		{"single field", "0\n", math.MaxInt32},
		{"non numeric", "a b\n", math.MaxInt32},
		{"negative id", "-1 2\n", math.MaxInt32},
		{"non numeric second", "1 x\n", math.MaxInt32},
		{"id past a small limit", "0 1\n5 0\n", 5},
		{"id past the limit", "0 3000000\n", 2000000},
		{"id past the int32 ID space", "0 2147483647\n", math.MaxInt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.input), tc.limit); err == nil {
				t.Fatalf("ReadEdgeList(%q, %d) succeeded, want error", tc.input, tc.limit)
			}
		})
	}
}

func TestGraphFormatRoundTripPreservesAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 0.1, 2)
	var buf bytes.Buffer
	if err := g.WriteGraph(&buf); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	back, err := ReadGraph(&buf, math.MaxInt32)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if !g.Equal(back) {
		t.Fatal("graph format round trip lost information")
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"missing header", "edge 0 1\n"},
		{"bad node count", "nodes x\nattrs 1\n"},
		{"bad attr width", "nodes 2\nattrs 99\n"},
		{"node id out of range", "nodes 2\nattrs 1\nnode 5 1\n"},
		{"wrong attr arity", "nodes 2\nattrs 2\nnode 0 1\n"},
		{"attr bit not binary", "nodes 2\nattrs 1\nnode 0 7\n"},
		{"edge out of range", "nodes 2\nattrs 0\nedge 0 9\n"},
		{"unknown directive", "nodes 2\nattrs 0\nfoo 1 2\n"},
		{"malformed edge", "nodes 2\nattrs 0\nedge 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadGraph(strings.NewReader(tc.input), math.MaxInt32); err == nil {
				t.Fatalf("ReadGraph(%q) succeeded, want error", tc.input)
			}
		})
	}
}

// TestReadGraphNodeLimit checks that a nodes directive above the caller's
// limit, or above the int32 ID space whatever the limit, is an error at
// its line rather than an allocation or a panic.
func TestReadGraphNodeLimit(t *testing.T) {
	if g, err := ReadGraph(strings.NewReader("nodes 5\nattrs 0\nedge 0 4\n"), 5); err != nil || g.NumNodes() != 5 {
		t.Fatalf("nodes at the limit: graph %v, error %v", g, err)
	}
	for _, tc := range []struct {
		input string
		limit int
	}{
		{"nodes 6\nattrs 0\n", 5},
		{"# agmdp graph\nnodes 2147483648\nattrs 0\n", math.MaxInt},
	} {
		_, err := ReadGraph(strings.NewReader(tc.input), tc.limit)
		if err == nil || !strings.Contains(err.Error(), "limit is") || !strings.Contains(err.Error(), "line ") {
			t.Errorf("ReadGraph(%q, %d) error = %v, want a node limit error naming the line", tc.input, tc.limit, err)
		}
	}
}

func TestReadGraphHeaderOnly(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("nodes 3\nattrs 1\n"), math.MaxInt32)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 0 || g.NumAttributes() != 1 {
		t.Fatalf("header-only graph = %d nodes / %d edges / %d attrs", g.NumNodes(), g.NumEdges(), g.NumAttributes())
	}
	if _, err := ReadGraph(strings.NewReader("# just a comment\n"), math.MaxInt32); err == nil {
		t.Fatal("ReadGraph with no header should fail")
	}
}

func TestSaveAndLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	b := buildTriangleWithTailB()
	b.SetAttr(1, 2)
	g := b.Finalize()
	p := filepath.Join(dir, "g.txt")
	if err := SaveGraph(g, p); err != nil {
		t.Fatalf("SaveGraph: %v", err)
	}
	back, err := LoadGraph(p)
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	if !g.Equal(back) {
		t.Fatal("SaveGraph/LoadGraph round trip lost information")
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("LoadGraph on a missing file should fail")
	}
}

func TestLoadEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(p, []byte("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"), 0o644); err != nil {
		t.Fatalf("writing edge list: %v", err)
	}
	back, err := LoadEdgeList(p)
	if err != nil {
		t.Fatalf("LoadEdgeList: %v", err)
	}
	if back.NumEdges() != 6 {
		t.Fatalf("LoadEdgeList edges = %d, want 6", back.NumEdges())
	}
	if _, err := LoadEdgeList(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("LoadEdgeList on a missing file should fail")
	}
}
