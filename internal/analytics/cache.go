package analytics

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"agmdp/internal/atomicfile"
	"agmdp/internal/graph"
	"agmdp/internal/obs"
)

// DefaultMaxEntries bounds the in-memory bundle LRU when Options leaves
// MaxEntries zero. Encoded bundles are small (the degree histogram dominates,
// a few KiB for heavy-tailed graphs), so the default comfortably outnumbers
// the graphs a store typically keeps resident.
const DefaultMaxEntries = 128

// ErrNotFound reports a graph ID the cache's source does not hold.
var ErrNotFound = errors.New("analytics: graph not found")

// Cache metrics on the process-wide default registry, mirroring the
// graphstore counters: every Get is exactly one hit or one miss, and every
// miss that could not be satisfied from a persisted .metrics file is one
// compute. The live resident-bundle count for a specific cache is wired by
// the server through a Len gauge func.
var (
	cacheHits = obs.Default().Counter("agmdp_analytics_cache_hits_total",
		"Metric-bundle requests served from an already-encoded resident bundle.")
	cacheMisses = obs.Default().Counter("agmdp_analytics_cache_misses_total",
		"Metric-bundle requests that found no resident bundle and had to load (or wait on a load of) one.")
	cacheComputes = obs.Default().Counter("agmdp_analytics_computes_total",
		"Metric bundles computed from a decoded graph (single-flighted per graph; persisted-file reloads excluded).")
	stageDurations = obs.Default().HistogramVec("agmdp_analytics_stage_duration_seconds",
		"Wall-clock duration of metric-bundle compute stages.", nil, "stage")
)

// GraphSource resolves graph IDs to decoded graphs; *graphstore.Store
// satisfies it.
type GraphSource interface {
	Get(id string) (*graph.Graph, bool)
}

// Options configures a Cache.
type Options struct {
	// Source resolves graph IDs to graphs. Required.
	Source GraphSource
	// Dir, when non-empty, enables persistence: every computed bundle is
	// written to <id>.metrics inside Dir (through atomicfile) and
	// reloaded verbatim on the next cold request — typically the graph
	// store's own directory, so bundles live next to the .csr snapshots they
	// describe.
	Dir string
	// MaxEntries bounds the in-memory LRU of encoded bundles; least recently
	// used bundles are dropped first (their .metrics files stay — the next
	// request reloads instead of recomputing). 0 means DefaultMaxEntries;
	// negative means unbounded.
	MaxEntries int
}

// entry is one cached bundle. raw/bundle are guarded by Cache.mu; computeMu
// single-flights the load-or-compute of a cold entry so concurrent cold
// requests for the same graph do the work once.
type entry struct {
	computeMu sync.Mutex
	raw       []byte // canonical encoded bundle; nil until loaded
	bundle    *Bundle
	elem      *list.Element // LRU position; nil when not resident
}

// Cache serves canonical metric bundles content-addressed by
// (graph ID, BundleVersion). Graph IDs are content hashes of immutable
// snapshots, so a cached bundle never goes stale: entries leave only through
// LRU pressure or explicit Evict (when the graph itself is deleted).
type Cache struct {
	opts Options

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // of *entry, most recently used in front
	ids      map[*entry]string
	warnings []string
}

// maxCacheWarnings bounds the warning log so a directory of damaged files
// cannot grow it without bound.
const maxCacheWarnings = 100

// NewCache builds a bundle cache over a graph source. With a Dir, temp files
// a crash left mid-write in it are removed first.
func NewCache(opts Options) (*Cache, error) {
	if opts.Source == nil {
		return nil, errors.New("analytics: Options.Source is required")
	}
	if opts.MaxEntries == 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("analytics: creating cache dir: %w", err)
		}
		atomicfile.Sweep(opts.Dir)
	}
	return &Cache{
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
		ids:     make(map[*entry]string),
	}, nil
}

// envelope is the on-disk form of a persisted bundle. Bundle stays a raw
// message so a reloaded bundle is served byte-for-byte as it was first
// encoded — cold, warm and post-restart responses are identical.
type envelope struct {
	Version int             `json:"version"`
	GraphID string          `json:"graph_id"`
	Bundle  json.RawMessage `json:"bundle"`
}

// Get returns the encoded metric bundle and its decoded form for a stored
// graph, computing and (when a Dir is configured) persisting it on first
// use. The returned bytes are shared and must not be mutated. Concurrent
// cold Gets of the same graph compute once. Returns ErrNotFound when the
// source does not hold the ID.
func (c *Cache) Get(id string) ([]byte, *Bundle, error) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if ok && e.raw != nil {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		raw, b := e.raw, e.bundle
		c.mu.Unlock()
		cacheHits.Inc()
		return raw, b, nil
	}
	if !ok {
		e = &entry{}
		c.entries[id] = e
		c.ids[e] = id
	}
	c.mu.Unlock()
	cacheMisses.Inc()

	e.computeMu.Lock()
	defer e.computeMu.Unlock()
	// A winner may have filled the entry while this caller waited.
	c.mu.Lock()
	if e.raw != nil {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		raw, b := e.raw, e.bundle
		c.mu.Unlock()
		return raw, b, nil
	}
	c.mu.Unlock()

	raw, b, err := c.loadOrCompute(id)
	if err != nil {
		// Drop the placeholder so a transient failure does not pin an
		// empty entry (and its LRU bookkeeping) forever.
		c.mu.Lock()
		if cur, still := c.entries[id]; still && cur == e {
			delete(c.entries, id)
			delete(c.ids, e)
		}
		c.mu.Unlock()
		return nil, nil, err
	}

	c.mu.Lock()
	// Admit only if the entry is still the stored one: an Evict that raced
	// with the compute keeps the bundle out of the cache, but the result is
	// still valid for this caller.
	if cur, still := c.entries[id]; still && cur == e {
		e.raw = raw
		e.bundle = b
		e.elem = c.lru.PushFront(e)
		for c.opts.MaxEntries >= 0 && c.lru.Len() > c.opts.MaxEntries && c.lru.Len() > 1 {
			c.dropLocked(c.lru.Back().Value.(*entry))
		}
	}
	c.mu.Unlock()
	return raw, b, nil
}

// loadOrCompute resolves a cold bundle: from the persisted .metrics file when
// one is present and valid, else by computing from the decoded graph. Callers
// hold the entry's computeMu.
func (c *Cache) loadOrCompute(id string) ([]byte, *Bundle, error) {
	if raw, b, ok := c.loadFile(id); ok {
		return raw, b, nil
	}
	g, ok := c.opts.Source.Get(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	cacheComputes.Inc()
	b := Compute(id, g, func(stage string, d time.Duration) {
		stageDurations.With(stage).ObserveDuration(d)
	})
	start := time.Now()
	raw, err := json.Marshal(b)
	if err != nil {
		return nil, nil, fmt.Errorf("analytics: encoding bundle for %s: %w", id, err)
	}
	stageDurations.With("encode").ObserveDuration(time.Since(start))
	c.persist(id, raw)
	return raw, b, nil
}

// loadFile reloads a persisted bundle, verifying the envelope's version and
// graph ID. Any damage — unreadable JSON, wrong version, wrong ID, a bundle
// that does not decode — records a warning and falls through to recompute
// (which rewrites the file).
func (c *Cache) loadFile(id string) ([]byte, *Bundle, bool) {
	if c.opts.Dir == "" {
		return nil, nil, false
	}
	path := c.metricsPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.warn("reading %s: %v", filepath.Base(path), err)
		}
		return nil, nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		c.warn("corrupt metrics file %s: %v", filepath.Base(path), err)
		return nil, nil, false
	}
	if env.Version != BundleVersion {
		c.warn("metrics file %s has version %d, want %d; recomputing", filepath.Base(path), env.Version, BundleVersion)
		return nil, nil, false
	}
	if env.GraphID != id {
		c.warn("metrics file %s claims graph %s; recomputing", filepath.Base(path), env.GraphID)
		return nil, nil, false
	}
	var b Bundle
	if err := json.Unmarshal(env.Bundle, &b); err != nil {
		c.warn("corrupt bundle in %s: %v", filepath.Base(path), err)
		return nil, nil, false
	}
	if b.GraphID != id || b.Version != BundleVersion {
		c.warn("metrics file %s holds a bundle for graph %q version %d; recomputing", filepath.Base(path), b.GraphID, b.Version)
		return nil, nil, false
	}
	return []byte(env.Bundle), &b, true
}

// persist writes the encoded bundle to <id>.metrics through atomicfile.
// Persistence is best-effort: a failure is recorded as a warning and the
// request is still served from memory.
func (c *Cache) persist(id string, raw []byte) {
	if c.opts.Dir == "" {
		return
	}
	env, err := json.Marshal(envelope{Version: BundleVersion, GraphID: id, Bundle: raw})
	if err != nil {
		c.warn("encoding metrics envelope for %s: %v", id, err)
		return
	}
	if err := atomicfile.Write(c.metricsPath(id), env); err != nil {
		c.warn("persisting metrics for %s: %v", id, err)
	}
}

// metricsPath is the persisted-bundle path for a graph ID.
func (c *Cache) metricsPath(id string) string {
	return filepath.Join(c.opts.Dir, id+".metrics")
}

// Evict drops a graph's bundle from memory and removes its .metrics file.
// Call it when the underlying graph is deleted; LRU pressure never removes
// files. Reports whether anything was removed.
func (c *Cache) Evict(id string) bool {
	c.mu.Lock()
	e, ok := c.entries[id]
	if ok {
		if e.elem != nil {
			c.dropLocked(e)
		}
		delete(c.entries, id)
		delete(c.ids, e)
	}
	c.mu.Unlock()
	if c.opts.Dir != "" {
		if err := os.Remove(c.metricsPath(id)); err == nil {
			ok = true
		}
	}
	return ok
}

// dropLocked removes one resident bundle from the LRU, leaving any persisted
// file in place for lazy reload. Callers hold c.mu.
func (c *Cache) dropLocked(e *entry) {
	c.lru.Remove(e.elem)
	e.raw = nil
	e.bundle = nil
	e.elem = nil
	// The entry itself leaves the map too: unlike graphstore snapshots there
	// is no cheap backing handle worth keeping, and the next Get recreates
	// the placeholder in one map insert.
	if id, ok := c.ids[e]; ok {
		delete(c.entries, id)
		delete(c.ids, e)
	}
}

// Len reports the number of bundles resident in memory.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Warnings returns the accumulated non-fatal problems: corrupt or mismatched
// .metrics files (recomputed and rewritten) and failed persistence attempts.
func (c *Cache) Warnings() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.warnings))
	copy(out, c.warnings)
	return out
}

// warn records one bounded warning.
func (c *Cache) warn(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.warnings) >= maxCacheWarnings {
		return
	}
	c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
}
