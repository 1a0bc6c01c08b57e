package graph

import (
	"encoding/binary"
	"fmt"
	"io"
)

// streamEncoder stages little-endian values in a fixed buffer and hands it to
// the writer only when it fills, so encoding an entry costs an array store
// instead of a Write call. Errors are sticky.
type streamEncoder struct {
	w   io.Writer
	buf [8 * binaryChunkEntries]byte
	n   int
	err error
}

func (e *streamEncoder) flush() {
	if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

func (e *streamEncoder) u64(v uint64) {
	if e.n+8 > len(e.buf) {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

// u32s encodes vs, one buffer-sized batch at a time.
func (e *streamEncoder) u32s(vs []int32) {
	for len(vs) > 0 {
		if e.n+4 > len(e.buf) {
			e.flush()
		}
		k := min(len(vs), (len(e.buf)-e.n)/4)
		out := e.buf[e.n : e.n+4*k]
		for _, v := range vs[:k] {
			binary.LittleEndian.PutUint32(out, uint32(v))
			out = out[4:]
		}
		e.n += 4 * k
		vs = vs[k:]
	}
}

// WriteBinaryTo writes the source's graph as a binary CSR snapshot; it is
// the format's one encoder. The encoding is canonical, so a Graph and a
// Builder (or attribute overlay) holding the same graph produce the same
// bytes. It never needs the concatenated CSR arrays: it makes three row
// passes over the source (offsets, neighbour rows, attrs) holding only one
// row plus a bounded staging buffer, which is what lets a sampled graph
// stream from the generator's builder straight to the socket in O(row)
// memory beyond the builder itself.
func WriteBinaryTo(w io.Writer, src RowSource) error {
	n, m, aw := src.NumNodes(), src.NumEdges(), src.NumAttributes()
	checkDims(n, aw)
	enc := &streamEncoder{w: w}
	hdr := enc.buf[:binaryHeaderSize]
	copy(hdr[0:8], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], binaryVersion)
	if aw > 0 {
		binary.LittleEndian.PutUint32(hdr[12:16], flagAttrs)
	}
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(aw))
	// hdr[20:24] is the reserved word, zero.
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(n))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(m))
	enc.n = binaryHeaderSize

	var off int64
	enc.u64(0)
	for u := 0; u < n; u++ {
		off += int64(src.RowDegree(u))
		enc.u64(uint64(off))
	}
	if off != int64(2*m) {
		return fmt.Errorf("graph: row source degrees sum to %d, want %d (= 2m)", off, 2*m)
	}
	// Rows are gathered into one batch before encoding: most are short, and
	// per-row encoder calls would cost more than the entries themselves.
	rows := make([]int32, 0, binaryChunkEntries)
	for u := 0; u < n; u++ {
		if rows = src.AppendRow(rows, u); len(rows) >= binaryChunkEntries {
			enc.u32s(rows)
			rows = rows[:0]
		}
	}
	enc.u32s(rows)
	if aw > 0 {
		for u := 0; u < n; u++ {
			enc.u64(uint64(src.RowAttr(u)))
		}
	}
	enc.flush()
	if enc.err != nil {
		return fmt.Errorf("graph: writing binary snapshot: %w", enc.err)
	}
	return nil
}
