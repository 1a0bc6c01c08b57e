package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary CSR snapshot format ("AGMDPCSR", version 1).
//
// The text formats in io.go are line-oriented and allocation-heavy: every
// node and edge costs a formatted line on the way out and a scanner line,
// a Fields split and per-field Atoi calls on the way back in. The binary
// snapshot instead serialises the CSR arrays directly, so encoding is a
// sequential memory copy and decoding is a bulk read plus one validation
// pass. The layout, all little-endian:
//
//	magic     [8]byte  "AGMDPCSR"
//	version   uint32   1
//	flags     uint32   bit 0: attrs array present (set iff w > 0)
//	w         uint32   attribute width, [0, MaxAttributes]
//	reserved  uint32   must be zero
//	n         uint64   node count
//	m         uint64   undirected edge count
//	offsets   (n+1) × int64   CSR row offsets, offsets[0] = 0, offsets[n] = 2m
//	neighbors 2m × int32      concatenated rows, strictly increasing per row
//	attrs     n × uint64      attribute bitmasks (present iff flags bit 0)
//
// The encoding is canonical: a given graph has exactly one valid encoding
// (the one WriteBinaryTo writes), and DecodeBinary rejects anything
// non-canonical (unknown flags, a nonzero reserved word, an attrs array on a
// width-0 graph, attribute bits above w). Canonical bytes make the format
// safe to content-address — equal graphs hash equal — which is what the
// graph store relies on.
//
// DecodeBinary fully validates the structural invariants the rest of the
// package assumes (monotone offsets, sorted in-range rows, no self loops,
// symmetric adjacency), so a decoded graph is indistinguishable from one
// built by a Builder, and corrupt or adversarial input fails with an error
// rather than corrupting later analytics. ReadBinary buffers only the bytes
// that actually arrive, so a header that declares a huge graph fails with an
// I/O error instead of exhausting memory up front.

const (
	binaryMagic   = "AGMDPCSR"
	binaryVersion = 1

	// flagAttrs marks the presence of the trailing attrs array.
	flagAttrs = 1 << 0

	// binaryHeaderSize is the fixed header length in bytes.
	binaryHeaderSize = 8 + 4 + 4 + 4 + 4 + 8 + 8

	// binaryChunkEntries bounds how many array entries the encoder stages
	// per write call: large enough to amortise call overhead, small enough
	// to keep the staging buffer a fixed 64 KiB.
	binaryChunkEntries = 8192
)

// binaryHeader is the decoded fixed header of a binary CSR snapshot.
type binaryHeader struct {
	n, m, w int
	flags   uint32
}

// size returns the exact encoded length of the snapshot the header
// describes. The encoding is canonical, so the header fully determines it.
func (h binaryHeader) size() int64 {
	size := int64(binaryHeaderSize)
	size += int64(h.n+1) * 8
	size += int64(2*h.m) * 4
	if h.flags&flagAttrs != 0 {
		size += int64(h.n) * 8
	}
	return size
}

// section names the array a snapshot cut short after got bytes ended in.
func (h binaryHeader) section(got int64) string {
	offsetsEnd := int64(binaryHeaderSize) + int64(h.n+1)*8
	switch {
	case got < offsetsEnd:
		return "offsets"
	case got < offsetsEnd+int64(2*h.m)*4:
		return "neighbors"
	}
	return "attrs"
}

// parseBinaryHeader validates and decodes the fixed snapshot header,
// enforcing every canonical-form rule that is decidable from the header
// alone (magic, version, flags, attribute width, plausible counts).
func parseBinaryHeader(hdr []byte) (binaryHeader, error) {
	if string(hdr[0:8]) != binaryMagic {
		return binaryHeader{}, fmt.Errorf("graph: not an agmdp binary snapshot (magic %q)", hdr[0:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != binaryVersion {
		return binaryHeader{}, fmt.Errorf("graph: unsupported binary snapshot version %d (want %d)", v, binaryVersion)
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^uint32(flagAttrs) != 0 {
		return binaryHeader{}, fmt.Errorf("graph: unknown binary snapshot flags %#x", flags)
	}
	w := binary.LittleEndian.Uint32(hdr[16:20])
	if w > MaxAttributes {
		return binaryHeader{}, fmt.Errorf("graph: binary snapshot attribute width %d outside [0, %d]", w, MaxAttributes)
	}
	if (flags&flagAttrs != 0) != (w > 0) {
		return binaryHeader{}, fmt.Errorf("graph: non-canonical binary snapshot: attrs flag %t with width %d", flags&flagAttrs != 0, w)
	}
	if reserved := binary.LittleEndian.Uint32(hdr[20:24]); reserved != 0 {
		return binaryHeader{}, fmt.Errorf("graph: non-canonical binary snapshot: reserved word %#x", reserved)
	}
	n64 := binary.LittleEndian.Uint64(hdr[24:32])
	m64 := binary.LittleEndian.Uint64(hdr[32:40])
	if n64 > math.MaxInt32 {
		return binaryHeader{}, fmt.Errorf("graph: binary snapshot node count %d exceeds the int32 ID space", n64)
	}
	n := int(n64)
	// The second bound keeps size() within an int64: near maxEdges(MaxInt32)
	// the neighbors array alone would overflow it.
	if m64 > uint64(maxEdges(n)) || m64 > (math.MaxInt64-binaryHeaderSize-16*(n64+1))/8 {
		return binaryHeader{}, fmt.Errorf("graph: binary snapshot edge count %d impossible for %d nodes", m64, n)
	}
	return binaryHeader{n: n, m: int(m64), w: int(w), flags: flags}, nil
}

// SnapshotStat is the lightweight metadata of a binary CSR snapshot,
// recoverable from its fixed header without decoding the arrays.
type SnapshotStat struct {
	// Nodes, Edges and Attributes are the graph dimensions (n, m, w).
	Nodes, Edges, Attributes int
	// Size is the exact encoded snapshot length in bytes. The encoding is
	// canonical, so a stored snapshot whose file length differs is corrupt.
	Size int64
}

// StatBinary decodes the metadata of a binary CSR snapshot from its leading
// bytes (at least the fixed header, BinaryHeaderSize bytes) without reading
// or validating the arrays. It is the O(header) entry point an out-of-core
// store uses to list snapshots it has not decoded.
func StatBinary(prefix []byte) (SnapshotStat, error) {
	if len(prefix) < binaryHeaderSize {
		return SnapshotStat{}, fmt.Errorf("graph: binary snapshot header truncated at %d bytes (want %d)", len(prefix), binaryHeaderSize)
	}
	h, err := parseBinaryHeader(prefix[:binaryHeaderSize])
	if err != nil {
		return SnapshotStat{}, err
	}
	return SnapshotStat{Nodes: h.n, Edges: h.m, Attributes: h.w, Size: h.size()}, nil
}

// BinaryHeaderSize is the length of the fixed snapshot header: the prefix
// StatBinary needs.
const BinaryHeaderSize = binaryHeaderSize

// ReadBinary parses one binary CSR snapshot from r with DecodeBinary's full
// validation. It reads the header, then exactly the snapshot length the header
// declares into a buffer that grows only as bytes arrive, so a lying header
// cannot force a large allocation; bytes after the snapshot are left unread.
// Input that ends early fails with an error naming the section it ended in.
func ReadBinary(r io.Reader) (*Graph, error) {
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	h, err := parseBinaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(hdr[:])
	if _, err := io.CopyN(buf, r, h.size()-binaryHeaderSize); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("graph: reading binary %s: %w", h.section(int64(buf.Len())), err)
	}
	return DecodeBinary(buf.Bytes())
}

// DecodeBinary parses a binary CSR snapshot held fully in memory and
// validates it completely. It is the one array decoder: ReadBinary buffers a
// stream's snapshot and hands it here, and stores that keep canonical
// snapshot bytes (heap-resident or mmap'd) call it directly to materialise
// the graph on first use. Unlike ReadBinary, the slice must be exactly one
// snapshot — trailing bytes fail decoding, because a content-addressed
// snapshot with trailing junk is by definition corrupt.
//
// The decoded graph shares no memory with data: callers may unmap or reuse
// the input once DecodeBinary returns.
func DecodeBinary(data []byte) (*Graph, error) {
	if len(data) < binaryHeaderSize {
		return nil, fmt.Errorf("graph: binary snapshot truncated at %d bytes (want at least %d)", len(data), binaryHeaderSize)
	}
	h, err := parseBinaryHeader(data[:binaryHeaderSize])
	if err != nil {
		return nil, err
	}
	if want := h.size(); int64(len(data)) != want {
		return nil, fmt.Errorf("graph: binary snapshot is %d bytes, want exactly %d for its header", len(data), want)
	}
	n, m, w := h.n, h.m, h.w

	body := data[binaryHeaderSize:]
	offsets := make([]int64, n+1)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
	}
	body = body[8*(n+1):]
	neighbors := make([]int32, 2*m)
	for i := range neighbors {
		neighbors[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
	}
	attrs := make([]AttrVector, n)
	if h.flags&flagAttrs != 0 {
		body = body[4*2*m:]
		for i := range attrs {
			a := AttrVector(binary.LittleEndian.Uint64(body[8*i:]))
			if a != a.maskWidth(w) {
				return nil, fmt.Errorf("graph: reading binary attrs: node %d attribute vector %#x has bits above width %d", i, uint64(a), w)
			}
			attrs[i] = a
		}
	}
	if err := validateCSR(n, offsets, neighbors); err != nil {
		return nil, fmt.Errorf("graph: invalid binary snapshot: %w", err)
	}
	return &Graph{w: w, m: m, offsets: offsets, neighbors: neighbors, attrs: attrs}, nil
}

// MemoryBytes estimates the resident heap footprint of the decoded graph:
// the CSR arrays plus the attribute vectors (allocated for every node even
// on width-0 graphs). Byte-budget caches use it to account decoded graphs;
// the struct header and allocator rounding are ignored.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.neighbors))*4 + int64(len(g.attrs))*8
}

// maxEdges returns the maximum undirected simple-graph edge count for n
// nodes, n·(n−1)/2.
func maxEdges(n int) int64 {
	if n < 2 {
		return 0
	}
	return int64(n) * int64(n-1) / 2
}

// validateCSR checks the structural invariants every Graph consumer assumes:
// offsets start at zero, never decrease and end at len(neighbors); each row
// is strictly increasing with in-range endpoints and no self loops; and the
// adjacency is symmetric.
func validateCSR(n int, offsets []int64, neighbors []int32) error {
	if offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", offsets[0])
	}
	for i := 0; i < n; i++ {
		if offsets[i+1] < offsets[i] {
			return fmt.Errorf("offsets decrease at row %d (%d -> %d)", i, offsets[i], offsets[i+1])
		}
	}
	if offsets[n] != int64(len(neighbors)) {
		return fmt.Errorf("offsets end at %d, want %d (= 2m)", offsets[n], len(neighbors))
	}
	row := func(u int) []int32 { return neighbors[offsets[u]:offsets[u+1]] }
	// While validating the rows, count the two edge orientations: symmetric
	// adjacency needs exactly as many forward entries (v > u) as reverse
	// entries (v < u).
	var forward, reverse int64
	for u := 0; u < n; u++ {
		prev := int32(-1)
		for _, v := range row(u) {
			if v <= prev {
				return fmt.Errorf("row %d is not strictly increasing", u)
			}
			if int(v) >= n {
				return fmt.Errorf("row %d neighbour %d out of range [0, %d)", u, v, n)
			}
			if int(v) == u {
				return fmt.Errorf("self loop at node %d", u)
			}
			if int(v) > u {
				forward++
			} else {
				reverse++
			}
			prev = v
		}
	}
	return validateSymmetry(n, offsets, neighbors, forward, reverse)
}

// validateSymmetry verifies that every directed entry has its reverse, in
// O(n + m) with a counting argument instead of a per-edge binary search
// (O(m log d)). Rows are already known sorted, so the forward entries (u, v)
// with v > u arrive with strictly increasing u; a per-row cursor therefore
// sweeps each reverse row once while matching them. The cursor pass proves
// every forward entry has a distinct reverse partner; the orientation counts
// being equal then proves no stray reverse entry is left unmatched — without
// the count, an asymmetric snapshot whose stray entries all point backward
// (say a lone {3→2} with no {2→3}) would slip through the sweep untouched.
func validateSymmetry(n int, offsets []int64, neighbors []int32, forward, reverse int64) error {
	if forward != reverse {
		return fmt.Errorf("asymmetric adjacency: %d forward entries vs %d reverse entries", forward, reverse)
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		rowU := neighbors[offsets[u]:offsets[u+1]]
		for _, v := range rowU {
			if int(v) < u {
				continue // reverse entries are consumed by the cursors below
			}
			// Require u in row v: skip v's reverse entries below u (each is
			// passed at most once across the whole pass), then match.
			c, end := cursor[v], offsets[int(v)+1]
			for c < end && neighbors[c] < int32(u) {
				c++
			}
			if c >= end || neighbors[c] != int32(u) {
				return fmt.Errorf("asymmetric adjacency: edge {%d,%d} missing its reverse entry", u, v)
			}
			cursor[v] = c + 1
		}
	}
	return nil
}

// SaveBinary writes the graph to the named file as a binary CSR snapshot.
func SaveBinary(g *Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	if err := WriteBinaryTo(f, g); err != nil {
		return err
	}
	return f.Close()
}

// LoadBinary reads a graph from the named binary CSR snapshot file.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadBinary(f)
}
