package graph_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"agmdp/internal/graph"
)

// randomGraph builds a random simple graph with n nodes, w attributes and
// roughly density·n·(n−1)/2 edges, with random attribute vectors.
func randomGraph(rng *rand.Rand, n, w int, density float64) *graph.Graph {
	b := graph.NewBuilder(n, w)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				b.AddEdge(u, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Uint64()))
	}
	return b.Finalize()
}

// encodeBinary encodes src into a byte slice, failing the test on error.
func encodeBinary(t testing.TB, src graph.RowSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, src); err != nil {
		t.Fatalf("WriteBinaryTo: %v", err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripProperty checks that random graphs round-trip through
// the binary codec bit-identically: the decoded graph equals the original
// and re-encoding reproduces the exact bytes.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(80)
		w := rng.Intn(graph.MaxAttributes + 1)
		g := randomGraph(rng, n, w, rng.Float64()*0.3)
		data := encodeBinary(t, g)
		if got, want := int64(len(data)), graph.SourceBinarySize(g); got != want {
			t.Fatalf("trial %d: encoded %d bytes, SourceBinarySize says %d", trial, got, want)
		}
		back, err := graph.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: ReadBinary: %v", trial, err)
		}
		if !g.Equal(back) {
			t.Fatalf("trial %d: decoded graph differs (n=%d w=%d m=%d)", trial, n, w, g.NumEdges())
		}
		if again := encodeBinary(t, back); !bytes.Equal(data, again) {
			t.Fatalf("trial %d: re-encoding is not byte-identical", trial)
		}
	}
}

// TestBinaryRoundTripCorners covers the degenerate shapes: zero nodes, zero
// edges, attribute-less graphs, and isolated nodes mixed with edges.
func TestBinaryRoundTripCorners(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(0, 0)},
		{"zero nodes with width", graph.New(0, 3)},
		{"nodes no edges", graph.New(5, 2)},
		{"attr-less", graph.FromEdges(4, 0, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})},
		{"single edge", graph.FromEdges(2, 1, []graph.Edge{{U: 0, V: 1}})},
		{"isolated tail", graph.FromEdges(10, 2, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeBinary(t, tc.g)
			back, err := graph.ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadBinary: %v", err)
			}
			if !tc.g.Equal(back) {
				t.Fatal("decoded graph differs")
			}
			if again := encodeBinary(t, back); !bytes.Equal(data, again) {
				t.Fatal("re-encoding is not byte-identical")
			}
		})
	}
}

// TestDecodeBinaryMatchesReadBinary pins the slice-based lazy-decode entry
// point to the stream decoder: for random graphs both decoders accept the
// canonical snapshot and produce equal graphs, and DecodeBinary's result
// shares no memory with the input (mutating the input must not change it).
func TestDecodeBinaryMatchesReadBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, rng.Intn(60), rng.Intn(graph.MaxAttributes+1), rng.Float64()*0.3)
		data := encodeBinary(t, g)
		streamed, err := graph.ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: ReadBinary: %v", trial, err)
		}
		decoded, err := graph.DecodeBinary(data)
		if err != nil {
			t.Fatalf("trial %d: DecodeBinary: %v", trial, err)
		}
		if !streamed.Equal(decoded) || !g.Equal(decoded) {
			t.Fatalf("trial %d: DecodeBinary disagrees with ReadBinary", trial)
		}
		for i := range data {
			data[i] = 0xff
		}
		if !g.Equal(decoded) {
			t.Fatalf("trial %d: decoded graph aliases the input bytes", trial)
		}
	}
}

// TestDecodeBinaryRejectsInexactLength checks that the slice decoder, unlike
// the stream decoder, refuses trailing bytes and truncated snapshots: a
// content-addressed snapshot must be exactly one encoding.
func TestDecodeBinaryRejectsInexactLength(t *testing.T) {
	g := graph.FromEdges(3, 1, []graph.Edge{{U: 0, V: 1}})
	data := encodeBinary(t, g)
	if _, err := graph.DecodeBinary(append(append([]byte(nil), data...), 'x')); err == nil {
		t.Fatal("DecodeBinary accepted trailing bytes")
	}
	if _, err := graph.DecodeBinary(data[:len(data)-1]); err == nil {
		t.Fatal("DecodeBinary accepted a truncated snapshot")
	}
	if _, err := graph.DecodeBinary(data[:10]); err == nil {
		t.Fatal("DecodeBinary accepted a truncated header")
	}
	if _, err := graph.DecodeBinary(data); err != nil {
		t.Fatalf("DecodeBinary rejected the exact snapshot: %v", err)
	}
}

// TestStatBinary checks the O(header) metadata entry point: dimensions and
// exact size from just the header prefix, and rejection of foreign bytes.
func TestStatBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 1+rng.Intn(50), rng.Intn(graph.MaxAttributes+1), rng.Float64()*0.3)
		data := encodeBinary(t, g)
		stat, err := graph.StatBinary(data[:graph.BinaryHeaderSize])
		if err != nil {
			t.Fatalf("trial %d: StatBinary: %v", trial, err)
		}
		if stat.Nodes != g.NumNodes() || stat.Edges != g.NumEdges() || stat.Attributes != g.NumAttributes() {
			t.Fatalf("trial %d: StatBinary = %+v, want n=%d m=%d w=%d", trial, stat, g.NumNodes(), g.NumEdges(), g.NumAttributes())
		}
		if stat.Size != int64(len(data)) || stat.Size != graph.SourceBinarySize(g) {
			t.Fatalf("trial %d: StatBinary.Size = %d, want %d", trial, stat.Size, len(data))
		}
	}
	if _, err := graph.StatBinary([]byte("short")); err == nil {
		t.Fatal("StatBinary accepted a short prefix")
	}
	if _, err := graph.StatBinary(make([]byte, graph.BinaryHeaderSize)); err == nil {
		t.Fatal("StatBinary accepted a zeroed header")
	}
}

// TestMemoryBytes pins the decoded-footprint estimate to the CSR array
// lengths the byte-budget cache accounts with.
func TestMemoryBytes(t *testing.T) {
	g := graph.FromEdges(5, 2, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	want := int64(6*8 + 6*4 + 5*8) // offsets, neighbors, attrs
	if got := g.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if graph.New(0, 0).MemoryBytes() != 8 {
		t.Fatal("empty graph should cost one offset entry")
	}
}

// TestBinaryMatchesTextDecode pins the two codecs to each other: the same
// graph decoded from its text form and from its binary form must be equal.
func TestBinaryMatchesTextDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 2, 0.1)

	var text bytes.Buffer
	if err := g.WriteGraph(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := graph.ReadGraph(&text, math.MaxInt32)
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := graph.ReadBinary(bytes.NewReader(encodeBinary(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if !fromText.Equal(fromBinary) {
		t.Fatal("text and binary decodes disagree")
	}
}

// TestBinaryIgnoresTrailingBytes checks that ReadBinary consumes exactly one
// snapshot and tolerates trailing data in the stream.
func TestBinaryIgnoresTrailingBytes(t *testing.T) {
	g := graph.FromEdges(3, 1, []graph.Edge{{U: 0, V: 1}})
	data := append(encodeBinary(t, g), "trailing garbage"...)
	back, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadBinary with trailing bytes: %v", err)
	}
	if !g.Equal(back) {
		t.Fatal("decoded graph differs")
	}
}

func TestSaveLoadBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 4, 0.15)
	path := filepath.Join(t.TempDir(), "snapshot.csr")
	if err := graph.SaveBinary(g, path); err != nil {
		t.Fatal(err)
	}
	back, err := graph.LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("loaded graph differs")
	}
}

// corruptAt returns a copy of data with the byte at i xor-ed with mask.
func corruptAt(data []byte, i int, mask byte) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= mask
	return out
}

// putU64 overwrites 8 bytes of a copy of data at off with v.
func putU64(data []byte, off int, v uint64) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// putU32 overwrites 4 bytes of a copy of data at off with v.
func putU32(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// TestReadBinaryRejectsCorruptInput drives ReadBinary through every
// validation failure: header corruption, impossible dimensions, truncation,
// and CSR invariant violations.
func TestReadBinaryRejectsCorruptInput(t *testing.T) {
	// Fixture: path 0-1-2 plus edge 0-3, width 2, distinct attrs.
	b := graph.NewBuilder(4, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.SetAttr(0, 1)
	b.SetAttr(1, 2)
	b.SetAttr(2, 3)
	g := b.Finalize()
	data := encodeBinary(t, g)

	// Offsets of the header fields and arrays within the encoding.
	const (
		offVersion  = 8
		offFlags    = 12
		offWidth    = 16
		offReserved = 20
		offNodes    = 24
		offEdges    = 32
		offArrays   = 40 // offsets array starts here: 5 × int64 for n = 4
	)
	offNeighbors := offArrays + 5*8 // 6 × int32
	offAttrs := offNeighbors + 6*4

	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error
	}{
		{"empty input", nil, "binary header"},
		{"bad magic", corruptAt(data, 0, 0xff), "magic"},
		{"bad version", putU32(data, offVersion, 99), "version"},
		{"unknown flags", putU32(data, offFlags, 0x80), "flags"},
		{"reserved word set", putU32(data, offReserved, 1), "reserved"},
		{"width over max", putU32(data, offWidth, 65), "width"},
		{"attrs flag without width", putU32(data, offWidth, 0), "non-canonical"},
		{"node count over int32", putU64(data, offNodes, 1<<33), "int32 ID space"},
		{"impossible edge count", putU64(data, offEdges, 100), "impossible"},
		{"truncated offsets", data[:offArrays+8], "offsets"},
		{"truncated neighbors", data[:offNeighbors+2], "neighbors"},
		{"truncated attrs", data[:offAttrs+3], "attrs"},
		{"offsets not starting at zero", putU64(data, offArrays, 1), "offsets"},
		{"offsets decreasing", putU64(data, offArrays+8, ^uint64(0)), "offsets"},
		{"offsets end mismatch", putU64(data, offArrays+4*8, 4), "offsets"},
		{"row out of range", putU32(data, offNeighbors, 9), "range"},
		{"attr bits above width", putU64(data, offAttrs, 0xff), "bits above width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := graph.ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadBinary accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBinaryRejectsOverflowingSize feeds a header whose arrays would be
// longer than an int64 can count, chosen so the length wraps to the 48 bytes
// actually supplied. Every decoder must reject it from the header rather than
// allocate arrays for 2³¹ nodes.
func TestBinaryRejectsOverflowingSize(t *testing.T) {
	const n = math.MaxInt32
	m := uint64(1)<<61 - 1<<32 + 2 // 40 + 8(n+1) + 8m + 8n ≡ 48 (mod 2⁶⁴)
	data := putU64(putU64(encodeBinary(t, graph.New(0, 1)), 24, n), 32, m)
	if len(data) != 48 {
		t.Fatalf("fixture is %d bytes, want 48", len(data))
	}
	if _, err := graph.StatBinary(data); err == nil || !strings.Contains(err.Error(), "impossible") {
		t.Fatalf("StatBinary: got %v, want an impossible edge count", err)
	}
	if _, err := graph.DecodeBinary(data); err == nil {
		t.Fatal("DecodeBinary accepted an overflowing header")
	}
	if _, err := graph.ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadBinary accepted an overflowing header")
	}
}

// TestReadBinaryRejectsBrokenCSR hand-builds encodings whose arrays violate
// the CSR invariants that byte flips on a valid encoding cannot easily reach:
// unsorted rows, self loops, and asymmetric adjacency.
func TestReadBinaryRejectsBrokenCSR(t *testing.T) {
	encode := func(n, w, m int, flags uint32, offsets []int64, neighbors []int32, attrs []uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("AGMDPCSR")
		var scratch [8]byte
		writeU32 := func(v uint32) {
			binary.LittleEndian.PutUint32(scratch[:4], v)
			buf.Write(scratch[:4])
		}
		writeU64 := func(v uint64) {
			binary.LittleEndian.PutUint64(scratch[:8], v)
			buf.Write(scratch[:8])
		}
		writeU32(1) // version
		writeU32(flags)
		writeU32(uint32(w))
		writeU32(0) // reserved
		writeU64(uint64(n))
		writeU64(uint64(m))
		for _, v := range offsets {
			writeU64(uint64(v))
		}
		for _, v := range neighbors {
			binary.LittleEndian.PutUint32(scratch[:4], uint32(v))
			buf.Write(scratch[:4])
		}
		for _, v := range attrs {
			writeU64(v)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{
			"unsorted row",
			encode(3, 0, 2, 0, []int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}, nil),
			"strictly increasing",
		},
		{
			"duplicate neighbour",
			encode(2, 0, 1, 0, []int64{0, 2, 2}, []int32{1, 1}, nil),
			"strictly increasing",
		},
		{
			"self loop",
			encode(2, 0, 1, 0, []int64{0, 1, 2}, []int32{0, 1}, nil),
			"self loop",
		},
		{
			"asymmetric adjacency",
			encode(3, 0, 1, 0, []int64{0, 1, 1, 2}, []int32{2, 1}, nil),
			"asymmetric",
		},
		{
			// The stray entries point low (4→0, 5→2) with no high-pointing
			// counterpart, the orientation a one-sided check would miss.
			"asymmetric adjacency pointing low",
			encode(6, 0, 1, 0, []int64{0, 0, 0, 0, 0, 1, 2}, []int32{0, 2}, nil),
			"asymmetric",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := graph.ReadBinary(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadBinary accepted a broken CSR")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzReadBinary feeds arbitrary bytes to ReadBinary. The decoder must never
// panic; when it accepts an input, the decoded graph must re-encode to
// exactly the bytes it consumed (the canonical-form property the graph
// store's content addressing relies on).
func FuzzReadBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	seeds := []*graph.Graph{
		graph.New(0, 0),
		graph.New(3, 2),
		graph.FromEdges(4, 0, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
		randomGraph(rng, 12, 2, 0.3),
		randomGraph(rng, 25, 64, 0.1),
	}
	for _, g := range seeds {
		var buf bytes.Buffer
		if err := graph.WriteBinaryTo(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A corrupted variant steers the fuzzer into the validators.
		if buf.Len() > 45 {
			f.Add(corruptAt(buf.Bytes(), 44, 0x1f))
		}
	}
	f.Add([]byte("AGMDPCSR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := graph.WriteBinaryTo(&out, g); err != nil {
			t.Fatalf("re-encoding an accepted graph failed: %v", err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes re-encoded", len(data), out.Len())
		}
	})
}
