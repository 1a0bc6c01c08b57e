package graphstore

import (
	"io"
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

// benchGraph builds a graph big enough that decode cost dominates map and
// lock overhead (~4k nodes, ~80k edges).
func benchGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(7))
	n := 4000
	b := graph.NewBuilder(n, 2)
	for i := 0; i < 20*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	for i := 0; i < n; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(4)))
	}
	return b.Finalize()
}

func benchStore(b *testing.B) (*Store, string) {
	b.Helper()
	s, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	id, err := s.Put(benchGraph())
	if err != nil {
		b.Fatal(err)
	}
	return s, id
}

// BenchmarkGraphStoreGetCold measures a cache-miss Get: snapshot bytes to
// decoded CSR every iteration (the decoded form is dropped between
// iterations, as byte-budget pressure would).
func BenchmarkGraphStoreGetCold(b *testing.B) {
	s, id := benchStore(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.dropDecoded(id)
		if _, ok := s.Get(id); !ok {
			b.Fatal("Get failed")
		}
	}
}

// BenchmarkGraphStoreGetWarm measures a cache-hit Get: the decoded graph is
// resident and the call is a map lookup plus an LRU touch.
func BenchmarkGraphStoreGetWarm(b *testing.B) {
	s, id := benchStore(b)
	defer s.Close()
	if _, ok := s.Get(id); !ok {
		b.Fatal("warming Get failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(id); !ok {
			b.Fatal("Get failed")
		}
	}
}

// BenchmarkGraphDownloadReencode measures the pre-lazy-store download path:
// materialize the decoded graph, then re-encode it to the wire.
func BenchmarkGraphDownloadReencode(b *testing.B) {
	s, id := benchStore(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.dropDecoded(id)
		g, ok := s.Get(id)
		if !ok {
			b.Fatal("Get failed")
		}
		if err := graph.WriteBinaryTo(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphDownloadZeroDecode measures the snapshot-serving download
// path: bytes straight from the memory map (or file) with zero CSR decode.
func BenchmarkGraphDownloadZeroDecode(b *testing.B) {
	s, id := benchStore(b)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteSnapshot(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
