package graphstore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"agmdp/internal/graph"
)

// reopen closes a persistent store and opens a fresh one over the same
// directory, so every entry starts cold (snapshot on disk, nothing decoded).
func reopen(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	s.Close()
	back, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestOpenIsLazy checks the O(header) steady state: reopening a store over
// persisted snapshots decodes nothing, and the first Get materializes the
// graph on demand.
func TestOpenIsLazy(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(41)
	id, err := s.Put(g)
	if err != nil {
		t.Fatal(err)
	}

	s = reopen(t, s, Options{Dir: dir})
	if warnings := s.LoadWarnings(); len(warnings) != 0 {
		t.Fatalf("unexpected load warnings: %v", warnings)
	}
	if s.DecodedLen() != 0 || s.DecodedBytes() != 0 {
		t.Fatalf("reopened store has %d decoded graphs (%d bytes); want none",
			s.DecodedLen(), s.DecodedBytes())
	}
	// Metadata is served from the header index without decoding.
	info, ok := s.Stat(id)
	if !ok || info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("Stat after reopen = %+v, %v", info, ok)
	}
	if s.DecodedLen() != 0 {
		t.Fatal("Stat decoded the graph")
	}
	back, ok := s.Get(id)
	if !ok || !g.Equal(back) {
		t.Fatal("lazy Get did not return the stored graph")
	}
	if s.DecodedLen() != 1 || s.DecodedBytes() != g.MemoryBytes() {
		t.Fatalf("after Get: %d decoded graphs, %d bytes; want 1 graph, %d bytes",
			s.DecodedLen(), s.DecodedBytes(), g.MemoryBytes())
	}
}

// TestColdGetSingleFlight proves concurrent cold Gets decode once: every
// caller must receive the same *graph.Graph instance, i.e. the winner's
// decode was shared rather than each goroutine decoding its own copy.
func TestColdGetSingleFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Put(testGraph(42))
	if err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s, Options{Dir: dir})

	const callers = 16
	got := make([]*graph.Graph, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			g, ok := s.Get(id)
			if !ok {
				t.Errorf("caller %d: Get failed", i)
				return
			}
			got[i] = g
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d received a different decoded instance: the decode was not single-flighted", i)
		}
	}
}

// TestByteBudgetEviction drives a store with a budget that fits roughly one
// decoded graph and checks LRU byte accounting: older decoded graphs are
// dropped, re-Gets re-decode from the snapshot and still round-trip, and the
// most recently used graph is never evicted by its own admission.
func TestByteBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	g1, g2, g3 := testGraph(51), testGraph(52), testGraph(53)
	budget := g1.MemoryBytes() + g2.MemoryBytes()/2 // fits one, never two
	s, err := Open(Options{Dir: dir, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 3)
	for i, g := range []*graph.Graph{g1, g2, g3} {
		if ids[i], err = s.Put(g); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("store holds %d graphs, want 3", s.Len())
	}
	// Each Put admits its own graph and the budget forces the earlier one
	// out, so exactly the newest stays decoded.
	if s.DecodedLen() != 1 || s.DecodedBytes() != g3.MemoryBytes() {
		t.Fatalf("after puts: %d decoded (%d bytes), want only the last graph (%d bytes)",
			s.DecodedLen(), s.DecodedBytes(), g3.MemoryBytes())
	}
	// Re-decoding an evicted graph round-trips and displaces the cached one.
	back, ok := s.Get(ids[0])
	if !ok || !g1.Equal(back) {
		t.Fatal("evicted graph did not re-decode from its snapshot")
	}
	if s.DecodedLen() != 1 || s.DecodedBytes() != g1.MemoryBytes() {
		t.Fatalf("after re-decode: %d decoded (%d bytes), want only graph 1 (%d bytes)",
			s.DecodedLen(), s.DecodedBytes(), g1.MemoryBytes())
	}
	// A graph over the whole budget is still admitted (and served) alone.
	tiny, err := Open(Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	bigID, err := tiny.Put(g1)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := tiny.Get(bigID); !ok || !g1.Equal(got) {
		t.Fatal("over-budget graph is not servable")
	}
	if tiny.DecodedLen() != 1 {
		t.Fatalf("over-budget store caches %d graphs, want the newest kept", tiny.DecodedLen())
	}
}

// TestUnboundedCache checks the negative-budget escape hatch: nothing is
// ever dropped.
func TestUnboundedCache(t *testing.T) {
	s, err := Open(Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for seed := int64(60); seed < 70; seed++ {
		g := testGraph(seed)
		if _, err := s.Put(g); err != nil {
			t.Fatal(err)
		}
		want += g.MemoryBytes()
	}
	if s.DecodedLen() != 10 || s.DecodedBytes() != want {
		t.Fatalf("unbounded cache dropped graphs: %d decoded, %d bytes (want 10, %d)",
			s.DecodedLen(), s.DecodedBytes(), want)
	}
}

// TestWriteSnapshotZeroDecode checks that downloads are served from the
// snapshot bytes without materializing the graph: the streamed bytes equal
// the canonical encoding and the decoded cache stays empty.
func TestWriteSnapshotZeroDecode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(71)
	id, err := s.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := graph.WriteBinaryTo(&want, g); err != nil {
		t.Fatal(err)
	}

	s = reopen(t, s, Options{Dir: dir})
	var got bytes.Buffer
	if err := s.WriteSnapshot(id, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteSnapshot bytes differ from the canonical encoding")
	}
	if s.DecodedLen() != 0 {
		t.Fatal("WriteSnapshot decoded the graph")
	}
	if err := s.WriteSnapshot("no-such-id", io.Discard); err != ErrNotFound {
		t.Fatalf("WriteSnapshot(miss) = %v, want ErrNotFound", err)
	}
	// Bytes also serves cold, as a private copy.
	data, ok := s.Bytes(id)
	if !ok || !bytes.Equal(data, want.Bytes()) {
		t.Fatal("Bytes differs from the canonical encoding")
	}
	data[0] = 'x'
	again, _ := s.Bytes(id)
	if !bytes.Equal(again, want.Bytes()) {
		t.Fatal("Bytes returned a shared slice; mutation leaked into the store")
	}
}

// TestEvictDuringReads checks snapshot lifetime safety: a download started
// before an Evict completes with intact bytes even though the eviction
// unlinks the file and retires (potentially unmaps) the snapshot.
func TestEvictDuringReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(81)
	id, err := s.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	s = reopen(t, s, Options{Dir: dir})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := s.WriteSnapshot(id, &buf); err == nil {
				if decoded, derr := graph.DecodeBinary(buf.Bytes()); derr != nil || !g.Equal(decoded) {
					t.Error("concurrent download observed torn snapshot bytes")
				}
			}
		}()
	}
	s.Evict(id)
	wg.Wait()
	if _, err := os.Stat(filepath.Join(dir, id+".csr")); !os.IsNotExist(err) {
		t.Fatal("evicted snapshot file still on disk")
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("evicted graph still served")
	}
}

// TestFileBackedSnapshotFallback drives the chunked-file-read flavour of
// snap directly — the path every platform without memory mapping takes for
// all snapshot access — and its closed-handle behaviour.
func TestFileBackedSnapshotFallback(t *testing.T) {
	g := testGraph(95)
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.csr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sn := &snap{path: path, size: int64(buf.Len())}

	decoded, err := sn.decode()
	if err != nil || !g.Equal(decoded) {
		t.Fatalf("file-backed decode: %v", err)
	}
	var streamed bytes.Buffer
	if err := sn.writeTo(&streamed); err != nil || !bytes.Equal(streamed.Bytes(), buf.Bytes()) {
		t.Fatalf("file-backed writeTo: %v", err)
	}
	all, err := sn.readAll()
	if err != nil || !bytes.Equal(all, buf.Bytes()) {
		t.Fatalf("file-backed readAll: %v", err)
	}
	// A truncated file fails the decoder's size cross-check.
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.decode(); err == nil {
		t.Fatal("file-backed decode accepted a truncated snapshot")
	}
	// Closed snapshots refuse every access, idempotently.
	sn.close()
	sn.close()
	if _, err := sn.decode(); err == nil {
		t.Fatal("decode after close succeeded")
	}
	if err := sn.writeTo(io.Discard); err == nil {
		t.Fatal("writeTo after close succeeded")
	}
	if _, err := sn.readAll(); err == nil {
		t.Fatal("readAll after close succeeded")
	}
}

// TestSnapshotRefcounting pins the acquire/release lifetime rules the mmap
// path depends on: a close with readers in flight defers the teardown to the
// last release.
func TestSnapshotRefcounting(t *testing.T) {
	data := []byte("payload")
	sn := &snap{size: int64(len(data)), data: data}
	held, err := sn.acquire()
	if err != nil || held == nil {
		t.Fatalf("acquire: %v", err)
	}
	sn.close()
	if sn.data == nil {
		t.Fatal("close tore down the bytes while a reader held them")
	}
	sn.release()
	if sn.data != nil {
		t.Fatal("last release did not tear down the closed snapshot")
	}
	if _, err := sn.acquire(); err == nil {
		t.Fatal("acquire after close succeeded")
	}
}

// TestGetAfterCacheDropStaysValid checks that a caller-held graph survives
// its cache eviction: immutability means drops only affect residency.
func TestGetAfterCacheDropStaysValid(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(91)
	id, err := s.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	held, ok := s.Get(id)
	if !ok {
		t.Fatal("Get failed")
	}
	s.dropDecoded(id)
	if s.DecodedLen() != 0 {
		t.Fatal("dropDecoded left the graph resident")
	}
	if !g.Equal(held) {
		t.Fatal("held graph corrupted by cache drop")
	}
	reback, ok := s.Get(id)
	if !ok || !g.Equal(reback) {
		t.Fatal("re-decode after drop failed")
	}
}
