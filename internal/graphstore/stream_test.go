package graphstore

import (
	"math/rand"
	"os"
	"testing"

	"agmdp/internal/graph"
)

// testBuilder is testGraph's construction left unfinalized, so tests can
// exercise builder-backed row sources against the packed reference.
func testBuilder(seed int64) *graph.Builder {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(30)
	b := graph.NewBuilder(n, 2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.2 {
				b.AddEdge(u, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(4)))
	}
	return b
}

// TestPutSourceMatchesPut pins content-address stability across the two write
// paths: streaming a builder-backed source into the store must yield the same
// ID — and the same stored bytes — as packing the graph first, for both
// in-memory and persistent stores.
func TestPutSourceMatchesPut(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) Options
	}{
		{"in-memory", func(t *testing.T) Options { return Options{} }},
		{"persistent", func(t *testing.T) Options { return Options{Dir: t.TempDir()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := testBuilder(3)
			g := b.Finalize()

			ref, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantID, err := ref.Put(g)
			if err != nil {
				t.Fatal(err)
			}

			s, err := Open(tc.opts(t))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, err := s.PutSource(b)
			if err != nil {
				t.Fatalf("PutSource: %v", err)
			}
			if id != wantID {
				t.Fatalf("PutSource ID %s != Put ID %s", id, wantID)
			}
			back, ok := s.Get(id)
			if !ok || !g.Equal(back) {
				t.Fatal("PutSource snapshot does not decode to the source graph")
			}
			info, ok := s.Stat(id)
			if !ok || info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() || int64(info.SizeBytes) != graph.SourceBinarySize(g) {
				t.Fatalf("Stat = %+v", info)
			}
			// A duplicate streamed write deduplicates like Put does.
			if id2, err := s.PutSource(testBuilder(3)); err != nil || id2 != id || s.Len() != 1 {
				t.Fatalf("duplicate PutSource: id %s, err %v, len %d", id2, err, s.Len())
			}
		})
	}
}

// TestPutSourceOfStoredGraph checks that streaming a graph the persistent
// store already holds returns its ID and leaves the directory as it was:
// one snapshot, no temp file, and no put counted.
func TestPutSourceOfStoredGraph(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.PutSource(testBuilder(5))
	if err != nil {
		t.Fatalf("PutSource: %v", err)
	}
	puts := storePuts.Value()
	again, err := s.PutSource(testBuilder(5))
	if err != nil || again != id {
		t.Fatalf("second PutSource = %s, %v; want %s", again, err, id)
	}
	if got := storePuts.Value() - puts; got != 0 {
		t.Fatalf("second PutSource counted %d puts, want 0", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != id+".csr" {
		t.Fatalf("store directory holds %v, want only %s.csr", names, id)
	}
}
