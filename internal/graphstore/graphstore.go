// Package graphstore provides a thread-safe, content-addressed store of
// immutable CSR graphs whose source of truth is the canonical binary
// snapshot, not the decoded graph.
//
// The store is the service-side home of graph data: a sensitive input graph
// is uploaded once and fitted many times by ID, and sampled synthetic graphs
// can be stored back and downloaded later in any wire format. Graphs are
// identified by the content address of their canonical binary CSR snapshot
// (graph.WriteBinaryTo produces exactly one encoding per graph), so storing
// the same graph twice yields the same ID and a single resident entry.
//
// Steady-state residency is O(header) per stored graph: with a store
// directory configured the snapshot lives in its <id>.csr file (memory-mapped
// where the platform supports it, streamed from disk otherwise) and only the
// listing metadata stays on the heap. The decoded CSR arrays materialize
// lazily on the first Get, are shared by all callers (graph.Graph is
// immutable), and are held in an LRU bounded by a byte budget — when decoded
// graphs exceed the budget the least-recently-used ones are dropped and will
// simply re-decode from their snapshot on the next Get. Concurrent cold Gets
// of the same graph are single-flighted so the snapshot decodes once.
// Downloads go through WriteSnapshot, which streams the snapshot bytes with
// zero decode.
package graphstore

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"agmdp/internal/atomicfile"
	"agmdp/internal/graph"
	"agmdp/internal/obs"
)

// DefaultCacheBytes is the decoded-graph byte budget used when Options
// leaves CacheBytes zero: enough for a few working graphs without letting an
// idle fleet member pin every stored graph in heap.
const DefaultCacheBytes int64 = 256 << 20

// ErrNotFound reports a graph ID with no stored entry.
var ErrNotFound = errors.New("graphstore: graph not found")

// Store metrics on the process-wide default registry: lifetime stores,
// evictions, and decoded-cache traffic across every store in the process.
// Live resident-count and byte-size gauges for a specific store are wired by
// the server through Len/SizeBytes/DecodedLen/DecodedBytes gauge funcs.
var (
	storePuts = obs.Default().Counter("agmdp_graphstore_puts_total",
		"Graphs stored into a graph store (deduplicated re-puts excluded).")
	storeEvictions = obs.Default().Counter("agmdp_graphstore_evictions_total",
		"Graphs evicted from a graph store (explicit deletes and bound-driven evictions).")
	cacheHits = obs.Default().Counter("agmdp_graphstore_cache_hits_total",
		"Get calls served from an already-decoded resident graph.")
	cacheMisses = obs.Default().Counter("agmdp_graphstore_cache_misses_total",
		"Get calls that found no decoded graph resident and had to decode (or wait on a decode of) the snapshot.")
	cacheEvictions = obs.Default().Counter("agmdp_graphstore_cache_evictions_total",
		"Decoded graphs dropped from the byte-budget LRU (the snapshot stays; the next Get re-decodes).")
	cacheDecodes = obs.Default().Counter("agmdp_graphstore_decodes_total",
		"Snapshot-to-CSR decodes performed by Get (single-flighted per graph).")
)

// Options configures a Store.
type Options struct {
	// Dir, when non-empty, enables persistence: every stored graph is written
	// to Dir/<id>.csr as a binary CSR snapshot and existing snapshots are
	// indexed back (header-only — no decode) on Open.
	Dir string
	// MaxGraphs bounds the number of stored graphs; when the bound is
	// exceeded the oldest entry (by insertion time) is evicted entirely,
	// snapshot included. Zero means unbounded.
	MaxGraphs int
	// CacheBytes bounds the total MemoryBytes of decoded graphs kept
	// resident. Zero selects DefaultCacheBytes; negative means unbounded.
	// The most recently used graph is always kept resident even when it
	// alone exceeds the budget, so every stored graph remains servable.
	CacheBytes int64
	// Clock overrides the time source used for CreatedAt stamps (tests).
	Clock func() time.Time
}

// Info summarises one stored graph for listings.
type Info struct {
	ID         string    `json:"id"`
	Nodes      int       `json:"nodes"`
	Edges      int       `json:"edges"`
	Attributes int       `json:"attributes"`
	SizeBytes  int       `json:"size_bytes"`
	CreatedAt  time.Time `json:"created_at"`
}

// entry is one stored graph: its snapshot handle, cached listing metadata,
// and — only while cached — the decoded graph plus its LRU bookkeeping.
type entry struct {
	id   string
	info Info
	snap *snap

	// decodeMu single-flights cold Gets: the first caller decodes while the
	// rest block here, then find the decoded graph already admitted.
	decodeMu sync.Mutex

	// Decoded-cache state, guarded by the store mutex. g is nil when the
	// graph is not resident; elem is its node in Store.lru when it is.
	g      *graph.Graph
	gBytes int64
	elem   *list.Element
}

// Store is a thread-safe, content-addressed store of immutable graphs. The
// zero value is not usable; construct with Open.
type Store struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string // insertion order, oldest first, for bounded eviction
	dir     string
	max     int
	clock   func() time.Time
	skipped []string
	bytes   int64 // total snapshot bytes (disk or heap), maintained by insert/evict

	lru          *list.List // decoded graphs, most recently used at front
	cacheBytes   int64      // decoded byte budget; -1 means unbounded
	decodedBytes int64
}

// Open creates a store. If opts.Dir is non-empty the directory is created
// when missing, temp files a crash left mid-write are removed, and any
// previously persisted snapshots in it are indexed by header — their CSR
// arrays are not decoded until first Get.
func Open(opts Options) (*Store, error) {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	budget := opts.CacheBytes
	switch {
	case budget == 0:
		budget = DefaultCacheBytes
	case budget < 0:
		budget = -1
	}
	s := &Store{
		entries:    make(map[string]*entry),
		dir:        opts.Dir,
		max:        opts.MaxGraphs,
		clock:      clock,
		lru:        list.New(),
		cacheBytes: budget,
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("graphstore: creating store directory: %w", err)
		}
		atomicfile.Sweep(s.dir)
		if err := s.loadDir(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// IDFromBytes computes the content address of a canonical binary snapshot:
// the hex-encoded SHA-256 digest truncated to 16 bytes (32 hex characters),
// the same shape the model registry uses.
func IDFromBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// GraphID computes the content address a graph would be stored under without
// storing it: the canonical snapshot streams through the hash, never
// buffered. The tenancy layer keys its ε-ledger on this, so fitting the same
// graph inline, from the store, or re-uploaded under another name all charge
// one budget account.
func GraphID(g *graph.Graph) (string, error) {
	h := sha256.New()
	if err := graph.WriteBinaryTo(h, g); err != nil {
		return "", fmt.Errorf("graphstore: hashing graph: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// loadDir indexes persisted snapshots, oldest first so the eviction order
// matches the original insertion order. Each file costs one header read plus
// one hashing pass (over the memory map where available, streamed otherwise);
// no CSR decode happens here. Files that fail to read, parse, or hash to
// their own name are skipped (and reported via LoadWarnings) rather than
// failing the open: one corrupt file must not take every good graph out of
// service.
func (s *Store) loadDir() error {
	glob, err := filepath.Glob(filepath.Join(s.dir, "*.csr"))
	if err != nil {
		return fmt.Errorf("graphstore: scanning store directory: %w", err)
	}
	type stamped struct {
		path string
		mod  time.Time
	}
	files := make([]stamped, 0, len(glob))
	for _, path := range glob {
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("graphstore: %w", err)
		}
		files = append(files, stamped{path: path, mod: st.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].path < files[j].path
	})
	for _, f := range files {
		sn, stat, id, err := openSnapshot(f.path)
		if err != nil {
			s.skipped = append(s.skipped, fmt.Sprintf("%s: %v", f.path, err))
			continue
		}
		if want := strings.TrimSuffix(filepath.Base(f.path), ".csr"); want != id {
			sn.close()
			s.skipped = append(s.skipped, fmt.Sprintf("%s: content hashes to %s, not the name it was stored under", f.path, id))
			continue
		}
		s.insertLocked(id, sn, stat, f.mod)
	}
	for s.max > 0 && len(s.order) > s.max {
		s.evictLocked(s.order[0])
	}
	return nil
}

// openSnapshot validates one snapshot file by header and content hash and
// returns its snapshot handle, header stat, and content address. The
// canonical encoding makes trailing junk (a size mismatch against the
// header) detectable from the header alone, and renamed files show up as an
// ID mismatch at the caller. Nothing here decodes CSR arrays onto the heap:
// hashing runs over the memory map where available and streams otherwise.
func openSnapshot(path string) (*snap, graph.SnapshotStat, string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, graph.SnapshotStat{}, "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, graph.SnapshotStat{}, "", err
	}
	hdr := make([]byte, graph.BinaryHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, graph.SnapshotStat{}, "", fmt.Errorf("reading snapshot header: %w", err)
	}
	stat, err := graph.StatBinary(hdr)
	if err != nil {
		f.Close()
		return nil, graph.SnapshotStat{}, "", err
	}
	if stat.Size != st.Size() {
		f.Close()
		return nil, graph.SnapshotStat{}, "", fmt.Errorf("snapshot is %d bytes but its header implies %d", st.Size(), stat.Size)
	}
	if data, err := mmapFile(f, st.Size()); err == nil {
		f.Close()
		return &snap{path: path, size: st.Size(), data: data, mapped: true}, stat, IDFromBytes(data), nil
	}
	// No memory mapping on this platform: hash with a streaming read and
	// leave the snapshot file-backed (reads reopen the file).
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, graph.SnapshotStat{}, "", err
	}
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, 1<<16)); err != nil {
		f.Close()
		return nil, graph.SnapshotStat{}, "", err
	}
	f.Close()
	return &snap{path: path, size: st.Size()}, stat, hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// Put stores a graph and returns its content-addressed ID. Storing a graph
// that is already resident is a no-op that returns the existing ID. When
// persistence is enabled the snapshot is written and fsync'd before the store
// lock is taken, committed under it, and the file (not the encode buffer)
// becomes the entry's backing store; the just-encoded decoded graph is
// admitted to the cache so an immediate Get does not re-decode.
func (s *Store) Put(g *graph.Graph) (string, error) {
	var buf bytes.Buffer
	buf.Grow(int(graph.SourceBinarySize(g)))
	if err := graph.WriteBinaryTo(&buf, g); err != nil {
		return "", fmt.Errorf("graphstore: encoding graph: %w", err)
	}
	data := buf.Bytes()
	id := IDFromBytes(data)
	if _, ok := s.Stat(id); ok {
		return id, nil
	}
	stat := graph.SnapshotStat{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Attributes: g.NumAttributes(),
		Size:       int64(len(data)),
	}
	var staged *atomicfile.Staged
	if s.dir != "" {
		var err error
		staged, err = atomicfile.Stage(s.dir, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("graphstore: %w", err)
		}
	}
	return s.add(id, stat, staged, data, g)
}

// PutSource stores the graph a streaming row source describes and returns
// its content-addressed ID — the same ID Put assigns to the materialised
// graph, because the encoding is canonical. A *graph.Graph source delegates
// to Put (which also admits the decoded graph). Any other source — typically
// a sampler's builder — is encoded incrementally: with persistence enabled
// the snapshot streams straight to a staged temp file while being hashed, so
// store-back of a sampled graph never materialises the packed CSR arrays or
// a whole-snapshot encode buffer; the first Get decodes lazily from the file
// like any other cold entry. Without a directory the snapshot must live on
// the heap anyway, so the source is encoded into a single buffer that
// becomes the entry's backing store.
func (s *Store) PutSource(src graph.RowSource) (string, error) {
	if g, ok := src.(*graph.Graph); ok {
		return s.Put(g)
	}
	stat := graph.SnapshotStat{
		Nodes:      src.NumNodes(),
		Edges:      src.NumEdges(),
		Attributes: src.NumAttributes(),
		Size:       graph.SourceBinarySize(src),
	}
	if s.dir == "" {
		var buf bytes.Buffer
		buf.Grow(int(stat.Size))
		if err := graph.WriteBinaryTo(&buf, src); err != nil {
			return "", fmt.Errorf("graphstore: encoding graph: %w", err)
		}
		data := buf.Bytes()
		return s.add(IDFromBytes(data), stat, nil, data, nil)
	}
	// The ID is known only once the snapshot is encoded into its temp file.
	// A graph that is already stored ends the stage there, so the temp file
	// is removed without an fsync. Peak heap is the encoder's bounded
	// staging buffer, independent of graph size.
	var id string
	staged, err := atomicfile.Stage(s.dir, func(w io.Writer) error {
		h := sha256.New()
		if err := graph.WriteBinaryTo(io.MultiWriter(w, h), src); err != nil {
			return err
		}
		id = hex.EncodeToString(h.Sum(nil)[:16])
		if _, ok := s.Stat(id); ok {
			return errStored
		}
		return nil
	})
	if errors.Is(err, errStored) {
		return id, nil
	}
	if err != nil {
		return "", fmt.Errorf("graphstore: %w", err)
	}
	return s.add(id, stat, staged, nil, nil)
}

// errStored ends PutSource's stage once its hash names a stored graph:
// Stage then removes the temp file without fsyncing it.
var errStored = errors.New("graphstore: graph already stored")

// add indexes a new entry under id. With persistence the staged snapshot is
// committed as <id>.csr and backs the entry; otherwise data does. A
// concurrent put that stored the same graph first keeps its entry, and the
// staged copy is discarded. A non-nil g is admitted to the decoded cache.
// Only the commit (a rename and a directory fsync) runs under the store
// lock: the snapshot was written and fsync'd by the caller.
func (s *Store) add(id string, stat graph.SnapshotStat, staged *atomicfile.Staged, data []byte, g *graph.Graph) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[id]; ok {
		staged.Discard()
		return id, nil
	}
	sn := &snap{size: stat.Size, data: data}
	if staged != nil {
		final := filepath.Join(s.dir, id+".csr")
		if err := staged.Commit(final); err != nil {
			return "", fmt.Errorf("graphstore: %w", err)
		}
		sn = openFileSnap(final, stat.Size)
	}
	s.insertLocked(id, sn, stat, s.clock())
	if g != nil {
		s.admitLocked(s.entries[id], g)
	}
	for s.max > 0 && len(s.order) > s.max {
		s.evictLocked(s.order[0])
	}
	return id, nil
}

// openFileSnap wraps a freshly persisted (already content-verified) snapshot
// file: memory-mapped where supported, plain file-backed otherwise.
func openFileSnap(path string, size int64) *snap {
	f, err := os.Open(path)
	if err != nil {
		return &snap{path: path, size: size}
	}
	defer f.Close()
	if data, err := mmapFile(f, size); err == nil {
		return &snap{path: path, size: size, data: data, mapped: true}
	}
	return &snap{path: path, size: size}
}

// insertLocked adds an entry (decoded graph not yet resident) to the
// in-memory maps. Callers hold s.mu.
func (s *Store) insertLocked(id string, sn *snap, stat graph.SnapshotStat, created time.Time) {
	s.entries[id] = &entry{
		id:   id,
		snap: sn,
		info: Info{
			ID:         id,
			Nodes:      stat.Nodes,
			Edges:      stat.Edges,
			Attributes: stat.Attributes,
			SizeBytes:  int(stat.Size),
			CreatedAt:  created,
		},
	}
	s.order = append(s.order, id)
	s.bytes += stat.Size
	storePuts.Inc()
}

// LoadWarnings reports the store files Open skipped because they could not
// be read, parsed, or verified against their content address. Operators
// should surface these: a skipped file is a graph that silently left service.
func (s *Store) LoadWarnings() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.skipped))
	copy(out, s.skipped)
	return out
}

// Get returns the decoded graph with the given ID, decoding it from its
// snapshot on first use. Graphs are immutable, so the returned instance is
// shared: callers on any number of goroutines can use the result without
// copying, and it stays valid even after the cache drops or the store evicts
// the entry. Concurrent cold Gets of the same graph decode once. A snapshot
// that cannot be decoded (possible only if the verified file was damaged
// after Open) is reported as absent, with the error logged.
func (s *Store) Get(id string) (*graph.Graph, bool) {
	s.mu.Lock()
	e, ok := s.entries[id]
	if ok && e.g != nil {
		s.lru.MoveToFront(e.elem)
		g := e.g
		s.mu.Unlock()
		cacheHits.Inc()
		return g, true
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	cacheMisses.Inc()

	e.decodeMu.Lock()
	defer e.decodeMu.Unlock()
	// A winner may have decoded and admitted while this caller waited.
	s.mu.Lock()
	if e.g != nil {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		g := e.g
		s.mu.Unlock()
		return g, true
	}
	s.mu.Unlock()

	g, err := e.snap.decode()
	if err != nil {
		slog.Error("graphstore: decoding snapshot", "id", id, "err", err)
		return nil, false
	}
	cacheDecodes.Inc()
	s.mu.Lock()
	// Admit only if the entry is still the stored one: an eviction that
	// raced with the decode keeps the graph out of the cache, but the
	// decoded result is still valid for this caller.
	if cur, still := s.entries[id]; still && cur == e {
		s.admitLocked(e, g)
	}
	s.mu.Unlock()
	return g, true
}

// admitLocked places a decoded graph into the byte-budget LRU and evicts
// least-recently-used decoded graphs while over budget. The entry being
// admitted is never dropped by its own admission: a graph bigger than the
// whole budget still gets served, it just evicts everything else. Callers
// hold s.mu.
func (s *Store) admitLocked(e *entry, g *graph.Graph) {
	if e.g != nil {
		return
	}
	e.g = g
	e.gBytes = g.MemoryBytes()
	e.elem = s.lru.PushFront(e)
	s.decodedBytes += e.gBytes
	for s.cacheBytes >= 0 && s.decodedBytes > s.cacheBytes && s.lru.Len() > 1 {
		s.dropDecodedLocked(s.lru.Back().Value.(*entry))
	}
}

// dropDecodedLocked removes one decoded graph from the cache, leaving the
// snapshot (and the entry) in place for lazy re-decode. Callers hold s.mu.
func (s *Store) dropDecodedLocked(e *entry) {
	s.lru.Remove(e.elem)
	s.decodedBytes -= e.gBytes
	e.g = nil
	e.gBytes = 0
	e.elem = nil
	cacheEvictions.Inc()
}

// dropDecoded evicts one graph's decoded form, keeping its snapshot: the
// next Get re-decodes. Used by cold-path benchmarks and tests.
func (s *Store) dropDecoded(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[id]; ok && e.g != nil {
		s.dropDecodedLocked(e)
	}
}

// Bytes returns a copy of the canonical binary snapshot of a stored graph.
// Prefer WriteSnapshot for serving: it streams without materializing a heap
// copy.
func (s *Store) Bytes(id string) ([]byte, bool) {
	s.mu.RLock()
	e, ok := s.entries[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	data, err := e.snap.readAll()
	if err != nil {
		slog.Error("graphstore: reading snapshot", "id", id, "err", err)
		return nil, false
	}
	return data, true
}

// WriteSnapshot streams the canonical binary snapshot of a stored graph to w
// with zero CSR decode: straight from the memory map where available, via a
// chunked file read otherwise. The snapshot stays valid for the duration of
// the write even if the entry is concurrently evicted.
func (s *Store) WriteSnapshot(id string, w io.Writer) error {
	s.mu.RLock()
	e, ok := s.entries[id]
	s.mu.RUnlock()
	if !ok {
		return ErrNotFound
	}
	return e.snap.writeTo(w)
}

// Stat returns the listing metadata of one stored graph.
func (s *Store) Stat(id string) (Info, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[id]
	if !ok {
		return Info{}, false
	}
	return e.info, true
}

// List returns metadata for every stored graph, oldest first.
func (s *Store) List() []Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Info, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.entries[id].info)
	}
	return out
}

// Len returns the number of stored graphs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// SizeBytes returns the total canonical-snapshot bytes stored (on disk for
// persistent stores, on the heap for purely in-memory ones).
func (s *Store) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// DecodedLen returns the number of decoded graphs currently cached.
func (s *Store) DecodedLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lru.Len()
}

// DecodedBytes returns the total MemoryBytes of decoded graphs currently
// cached — the quantity bounded by Options.CacheBytes.
func (s *Store) DecodedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.decodedBytes
}

// Evict removes a graph from the store (and from disk, when persistence is
// enabled) and reports whether it was present.
func (s *Store) Evict(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[id]; !ok {
		return false
	}
	s.evictLocked(id)
	return true
}

// evictLocked removes one entry entirely: decoded cache slot, snapshot
// handle, and persisted file. Callers hold s.mu.
func (s *Store) evictLocked(id string) {
	if e, ok := s.entries[id]; ok {
		if e.g != nil {
			s.dropDecodedLocked(e)
		}
		s.bytes -= int64(e.info.SizeBytes)
		e.snap.close()
		storeEvictions.Inc()
	}
	delete(s.entries, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.dir != "" {
		os.Remove(filepath.Join(s.dir, id+".csr"))
	}
}

// Close releases the store's OS resources (memory maps). Entries remain
// listed but their snapshots can no longer be read, so Close should be the
// last call; it exists for orderly shutdown and tests, and is safe to call
// more than once.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		e.snap.close()
	}
}
