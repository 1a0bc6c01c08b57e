package graphstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"agmdp/internal/graph"
)

// testGraph builds a deterministic attributed graph keyed by seed.
func testGraph(seed int64) *graph.Graph {
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
	return b.Finalize()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(1)
	id, err := s.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(id) != 32 {
		t.Fatalf("ID %q is not a 32-hex-char content address", id)
	}
	back, ok := s.Get(id)
	if !ok || !g.Equal(back) {
		t.Fatal("Get did not return the stored graph")
	}
	info, ok := s.Stat(id)
	if !ok || info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() || info.Attributes != 2 {
		t.Fatalf("Stat = %+v", info)
	}
	data, ok := s.Bytes(id)
	if !ok {
		t.Fatal("Bytes missing")
	}
	decoded, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil || !g.Equal(decoded) {
		t.Fatalf("stored bytes do not decode to the graph: %v", err)
	}
	if IDFromBytes(data) != id {
		t.Fatal("stored bytes do not hash to the ID")
	}
}

func TestContentAddressingDeduplicates(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.Put(testGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Put(testGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("equal graphs got different IDs: %s vs %s", id1, id2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Put, want 1", s.Len())
	}
	if id3, _ := s.Put(testGraph(2)); id3 == id1 {
		t.Fatal("different graphs share an ID")
	}
}

func TestEvictAndList(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Put(testGraph(1))
	id2, _ := s.Put(testGraph(2))
	list := s.List()
	if len(list) != 2 || list[0].ID != id1 || list[1].ID != id2 {
		t.Fatalf("List = %+v", list)
	}
	if !s.Evict(id1) {
		t.Fatal("Evict known graph = false")
	}
	if s.Evict(id1) {
		t.Fatal("Evict twice = true")
	}
	if _, ok := s.Get(id1); ok {
		t.Fatal("evicted graph still resident")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestBoundedEviction(t *testing.T) {
	s, err := Open(Options{MaxGraphs: 2})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Put(testGraph(1))
	id2, _ := s.Put(testGraph(2))
	id3, _ := s.Put(testGraph(3))
	if _, ok := s.Get(id1); ok {
		t.Fatal("oldest graph survived the bound")
	}
	for _, id := range []string{id2, id3} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("graph %s was evicted, want oldest-first", id)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(4)
	id, err := s.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".csr")); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	reopened, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warnings := reopened.LoadWarnings(); len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	back, ok := reopened.Get(id)
	if !ok || !g.Equal(back) {
		t.Fatal("reopened store lost the graph")
	}
	// Evicting removes the file too.
	reopened.Evict(id)
	if _, err := os.Stat(filepath.Join(dir, id+".csr")); !os.IsNotExist(err) {
		t.Fatalf("snapshot file survived eviction: %v", err)
	}
}

func TestCorruptFilesAreSkippedWithWarnings(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	goodID, err := s.Put(testGraph(5))
	if err != nil {
		t.Fatal(err)
	}
	// One file of garbage, one valid snapshot stored under the wrong name.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 16)+".csr"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, testGraph(6)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("cd", 16)+".csr"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("Len = %d, want only the good graph", reopened.Len())
	}
	if _, ok := reopened.Get(goodID); !ok {
		t.Fatal("good graph was skipped")
	}
	if warnings := reopened.LoadWarnings(); len(warnings) != 2 {
		t.Fatalf("warnings = %v, want 2", warnings)
	}
}

func TestReloadPreservesInsertionOrderForEviction(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := func() time.Time { return now }
	s, err := Open(Options{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Put(testGraph(1))
	// Distinct mtimes so the reload order is deterministic.
	os.Chtimes(filepath.Join(dir, id1+".csr"), now.Add(-2*time.Hour), now.Add(-2*time.Hour))
	id2, _ := s.Put(testGraph(2))
	os.Chtimes(filepath.Join(dir, id2+".csr"), now.Add(-time.Hour), now.Add(-time.Hour))
	id3, _ := s.Put(testGraph(3))

	reopened, err := Open(Options{Dir: dir, MaxGraphs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(id1); ok {
		t.Fatal("oldest graph survived a tighter reload bound")
	}
	if reopened.Len() != 2 {
		t.Fatalf("Len = %d", reopened.Len())
	}
	if _, ok := reopened.Get(id3); !ok {
		t.Fatal("newest graph was evicted")
	}
}

// TestConcurrentAccess races puts of the same graphs (so concurrent stages
// of one snapshot meet at the commit), reads and evictions, in memory and on
// disk; on disk every resident graph keeps its snapshot file and no staged
// temp file is left.
func TestConcurrentAccess(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(Options{MaxGraphs: 8, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				for j := 0; j < 20; j++ {
					id, err := s.Put(testGraph(seed))
					if err != nil {
						t.Error(err)
						return
					}
					s.Get(id)
					s.Stat(id)
					s.List()
					if j%5 == 4 {
						s.Evict(id)
					}
				}
			}(int64(i % 4))
		}
		wg.Wait()
		if dir == "" {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != s.Len() {
			t.Errorf("store holds %d graphs but its directory %v", s.Len(), files)
		}
		for _, info := range s.List() {
			if _, err := os.Stat(filepath.Join(dir, info.ID+".csr")); err != nil {
				t.Error(err)
			}
		}
		s.Close()
	}
}
