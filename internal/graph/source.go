package graph

import "fmt"

// RowSource is the read-only row-range view the streaming pipeline is built
// on: anything that can report graph dimensions and hand out one sorted CSR
// row at a time. Both the immutable Graph and the mutable Builder implement
// it, so encoders can serialise a sampled graph straight out of the
// generator's builder — row by row, without ever materialising the
// concatenated CSR arrays — and the same code path serves already-frozen
// graphs.
//
// The contract mirrors the CSR invariants: rows are sorted, strictly
// increasing, self-loop free and symmetric, and the sum of RowDegree over all
// rows is 2·NumEdges. A Builder being streamed must not be mutated until the
// consumer is done with it.
type RowSource interface {
	// NumNodes, NumEdges and NumAttributes are the graph dimensions (n, m, w).
	NumNodes() int
	NumEdges() int
	NumAttributes() int
	// RowDegree returns the degree of node u without materialising the row.
	RowDegree(u int) int
	// AppendRow appends node u's sorted neighbour row to dst and returns the
	// extended slice, exactly len = RowDegree(u) entries.
	AppendRow(dst []int32, u int) []int32
	// RowAttr returns node u's attribute vector, masked to the source width.
	RowAttr(u int) AttrVector
}

// RowDegree returns the degree of node u. Part of the RowSource contract.
func (g *Graph) RowDegree(u int) int { return int(g.offsets[u+1] - g.offsets[u]) }

// AppendRow appends node u's sorted neighbour row to dst.
func (g *Graph) AppendRow(dst []int32, u int) []int32 { return append(dst, g.row(u)...) }

// RowAttr returns node u's attribute vector.
func (g *Graph) RowAttr(u int) AttrVector { return g.attrs[u] }

// RowDegree returns the degree of node u. Part of the RowSource contract.
func (b *Builder) RowDegree(u int) int { return len(b.rows[u]) }

// AppendRow appends node u's sorted neighbour row to dst.
func (b *Builder) AppendRow(dst []int32, u int) []int32 { return append(dst, b.rows[u]...) }

// RowAttr returns node u's attribute vector.
func (b *Builder) RowAttr(u int) AttrVector { return b.attrs[u] }

// attrSource overlays attribute vectors on another source's topology — the
// streaming analogue of Graph.WithAttributes. It holds only a reference to
// the vectors, so attaching sampled attributes to an unfinalized builder is
// O(1) and allocation free.
type attrSource struct {
	src  RowSource
	w    int
	vecs []AttrVector
}

// SourceWithAttributes returns a RowSource sharing src's topology but
// reporting attribute width w and the given vectors (bits above w are
// cleared on read). It panics if len(vecs) differs from the node count,
// matching Graph.WithAttributes.
func SourceWithAttributes(src RowSource, w int, vecs []AttrVector) RowSource {
	checkDims(src.NumNodes(), w)
	if len(vecs) != src.NumNodes() {
		panic(fmt.Sprintf("graph: %d attribute vectors for %d nodes", len(vecs), src.NumNodes()))
	}
	return &attrSource{src: src, w: w, vecs: vecs}
}

func (s *attrSource) NumNodes() int                        { return s.src.NumNodes() }
func (s *attrSource) NumEdges() int                        { return s.src.NumEdges() }
func (s *attrSource) NumAttributes() int                   { return s.w }
func (s *attrSource) RowDegree(u int) int                  { return s.src.RowDegree(u) }
func (s *attrSource) AppendRow(dst []int32, u int) []int32 { return s.src.AppendRow(dst, u) }
func (s *attrSource) RowAttr(u int) AttrVector             { return s.vecs[u].maskWidth(s.w) }

// Materialize freezes a RowSource into an immutable Graph. Graphs pass
// through unchanged, builders finalize, and attribute overlays materialise
// their inner source and re-attach — so for the sources produced by the
// sampling pipeline the result is byte-identical to the eagerly
// materialised path. Arbitrary sources are packed row by row.
func Materialize(src RowSource) *Graph {
	switch s := src.(type) {
	case *Graph:
		return s
	case *Builder:
		return s.Finalize()
	case *attrSource:
		return Materialize(s.src).WithAttributes(s.w, s.vecs)
	}
	n, w := src.NumNodes(), src.NumAttributes()
	checkDims(n, w)
	g := &Graph{
		w:       w,
		m:       src.NumEdges(),
		offsets: make([]int64, n+1),
		attrs:   make([]AttrVector, n),
	}
	for u := 0; u < n; u++ {
		g.offsets[u+1] = g.offsets[u] + int64(src.RowDegree(u))
		g.attrs[u] = src.RowAttr(u).maskWidth(w)
	}
	g.neighbors = make([]int32, 0, g.offsets[n])
	for u := 0; u < n; u++ {
		g.neighbors = src.AppendRow(g.neighbors, u)
	}
	return g
}

// SourceBinarySize returns the exact binary snapshot length of the
// source's graph in bytes — what WriteBinaryTo will produce — so servers can
// set Content-Length before streaming the first row.
func SourceBinarySize(src RowSource) int64 {
	n := int64(src.NumNodes())
	size := int64(binaryHeaderSize) + (n+1)*8 + int64(2*src.NumEdges())*4
	if src.NumAttributes() > 0 {
		size += n * 8
	}
	return size
}
