package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The text formats understood by this file:
//
// Edge list ("\t" or space separated, one edge per line, '#' comments):
//
//	# agmdp edge list
//	0 1
//	0 2
//
// Attribute file (one node per line: node ID followed by w binary values):
//
//	# agmdp attributes w=2
//	0 1 0
//	1 0 0
//
// Combined graph file (self-describing, written by WriteGraph):
//
//	# agmdp graph
//	nodes <n>
//	attrs <w>
//	node <id> <bit0> <bit1> ...
//	edge <u> <v>

// ReadEdgeList parses a whitespace-separated edge list. Node IDs are
// non-negative integers; the resulting graph has max(ID)+1 nodes and zero
// attributes. Lines starting with '#' or '%' are ignored. An ID that would
// make the graph larger than maxNodes, or than the int32 ID space, is refused
// at its line, before anything is sized by it: the graph allocates per-node
// state for every ID below the largest one.
func ReadEdgeList(r io.Reader, maxNodes int) (*Graph, error) {
	maxNodes = min(maxNodes, math.MaxInt32)
	var pairs []Edge
	maxID := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want at least 2 fields, got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: edge list line %d: negative node ID", line)
		}
		if id := max(u, v); id >= maxNodes {
			return nil, fmt.Errorf("graph: edge list line %d: node ID %d needs %d nodes, limit is %d", line, id, id+1, maxNodes)
		}
		maxID = max(maxID, u, v)
		pairs = append(pairs, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	// FromEdges drops duplicates and self loops and packs the list into CSR
	// form in one pass.
	return FromEdges(maxID+1, 0, pairs), nil
}

// WriteGraph writes the full attributed graph (nodes, attributes and edges) in
// the self-describing "agmdp graph" text format.
func (g *Graph) WriteGraph(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# agmdp graph")
	fmt.Fprintf(bw, "nodes %d\n", g.NumNodes())
	fmt.Fprintf(bw, "attrs %d\n", g.NumAttributes())
	for i := 0; i < g.NumNodes(); i++ {
		fmt.Fprintf(bw, "node %d", i)
		for j := 0; j < g.NumAttributes(); j++ {
			fmt.Fprintf(bw, " %d", g.attrs[i].Bit(j))
		}
		fmt.Fprintln(bw)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge %d %d\n", e.U, e.V)
	}
	return bw.Flush()
}

// ReadGraph parses the "agmdp graph" format produced by WriteGraph. The node
// and edge directives are accumulated and packed into an immutable CSR graph
// once the whole stream has been validated. A nodes directive above maxNodes,
// or above the int32 ID space, is refused at its line, before anything is
// sized by it: the count costs a few bytes of input but tens of bytes of
// memory per node.
func ReadGraph(r io.Reader, maxNodes int) (*Graph, error) {
	maxNodes = min(maxNodes, math.MaxInt32)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var (
		attrs []AttrVector
		edges []Edge
	)
	haveBody := false
	n, w := -1, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "nodes":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed nodes directive", line)
			}
			var err error
			n, err = strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[1])
			}
			if n > maxNodes {
				return nil, fmt.Errorf("graph: line %d: %d nodes, limit is %d", line, n, maxNodes)
			}
		case "attrs":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed attrs directive", line)
			}
			var err error
			w, err = strconv.Atoi(fields[1])
			if err != nil || w < 0 || w > MaxAttributes {
				return nil, fmt.Errorf("graph: line %d: bad attribute width %q", line, fields[1])
			}
		case "node":
			if n < 0 || w < 0 {
				return nil, fmt.Errorf("graph: line %d: node directive before nodes/attrs header", line)
			}
			haveBody = true
			if attrs == nil {
				attrs = make([]AttrVector, n)
			}
			if len(fields) != 2+w {
				return nil, fmt.Errorf("graph: line %d: node directive wants %d attribute bits", line, w)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= n {
				return nil, fmt.Errorf("graph: line %d: bad node id %q", line, fields[1])
			}
			var a AttrVector
			for j := 0; j < w; j++ {
				bit, err := strconv.Atoi(fields[2+j])
				if err != nil || (bit != 0 && bit != 1) {
					return nil, fmt.Errorf("graph: line %d: attribute bit must be 0 or 1", line)
				}
				a = a.WithBit(j, uint8(bit))
			}
			attrs[id] = a
		case "edge":
			if n < 0 || w < 0 {
				return nil, fmt.Errorf("graph: line %d: edge directive before nodes/attrs header", line)
			}
			haveBody = true
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed edge directive", line)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if u < 0 || u >= n || v < 0 || v >= n {
				return nil, fmt.Errorf("graph: line %d: edge endpoint out of range", line)
			}
			edges = append(edges, Edge{U: u, V: v})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading graph: %w", err)
	}
	if !haveBody && (n < 0 || w < 0) {
		return nil, fmt.Errorf("graph: missing nodes/attrs header")
	}
	g := FromEdges(n, w, edges)
	if attrs != nil {
		g = g.WithAttributes(w, attrs)
	}
	return g, nil
}

// SaveGraph writes the graph to the named file in the "agmdp graph" format.
func SaveGraph(g *Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	if err := g.WriteGraph(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadGraph reads a graph from the named file in the "agmdp graph" format,
// accepting any node count the int32 ID space holds.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadGraph(f, math.MaxInt32)
}

// LoadEdgeList reads an edge-list file from disk, accepting any node count
// the int32 ID space holds.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadEdgeList(f, math.MaxInt32)
}
