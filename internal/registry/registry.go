// Package registry provides a thread-safe store of fitted AGM-DP models keyed
// by content-addressed IDs.
//
// The registry exists because of the paper's key operational property
// (Algorithm 3, post-processing): a fitted ε-DP model can be sampled
// arbitrarily many times at no additional privacy cost. Fitting is the
// expensive, privacy-consuming step; sampling is cheap and repeatable. The
// registry therefore caches fitted models — in memory and optionally on disk —
// so a model is paid for once and served many times.
//
// Models are stored as their canonical serialized bytes (core.MarshalModel)
// and every Get decodes a fresh copy, so no caller can mutate registry state
// through a shared pointer. IDs are content addresses (core.ModelID): putting
// the same parameters twice yields the same ID and a single stored entry.
//
// The registry also caches each model's fitted acceptance table (Acceptance /
// SetAcceptance, the engine.AcceptanceCache interface), so the sampling
// engine refines a model's acceptance filter once instead of on every sample.
// With persistence enabled, tables are written to <id>.table files next to
// the model files and reloaded lazily on first Acceptance miss, so a restart
// costs no re-refinement; the table (file included) is dropped when its model
// is evicted.
package registry

import (
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
	"agmdp/internal/core"
	"agmdp/internal/obs"
)

// Registry metrics on the process-wide default registry: lifetime stores and
// evictions across every model registry in the process. Live resident-count
// and byte-size gauges for a specific registry are wired by the server
// through Len/SizeBytes gauge funcs.
var (
	registryPuts = obs.Default().Counter("agmdp_registry_puts_total",
		"Models stored into a registry (deduplicated re-puts excluded).")
	registryEvictions = obs.Default().Counter("agmdp_registry_evictions_total",
		"Models evicted from a registry (explicit deletes and bound-driven evictions).")
)

// Options configures a Registry.
type Options struct {
	// Dir, when non-empty, enables persistence: every stored model is written
	// to Dir/<id>.json and existing models are loaded back on Open.
	Dir string
	// TableDir, when non-empty, persists fitted acceptance tables as
	// TableDir/<id>.table and lazily reloads them on first Acceptance miss.
	// Empty defaults to Dir (tables live next to their model files); tables
	// stay purely in-memory when both are empty.
	TableDir string
	// MaxModels bounds the number of resident models; when the bound is
	// exceeded the oldest entry (by insertion time) is evicted. Zero means
	// unbounded.
	MaxModels int
	// Clock overrides the time source used for CreatedAt stamps (tests).
	Clock func() time.Time
}

// Info summarises one stored model for listings.
type Info struct {
	ID        string    `json:"id"`
	ModelName string    `json:"model"`
	N         int       `json:"n"`
	W         int       `json:"w"`
	Epsilon   float64   `json:"epsilon"`
	Private   bool      `json:"private"`
	SizeBytes int       `json:"size_bytes"`
	CreatedAt time.Time `json:"created_at"`
}

// entry is one resident model: its canonical bytes, a decoded copy for the
// hot serving path, cached metadata, and — once a sampler has fitted one —
// the model's acceptance table.
type entry struct {
	data    []byte
	decoded *core.FittedModel
	info    Info
	accept  []float64
}

// Registry is a thread-safe, content-addressed store of fitted models. The
// zero value is not usable; construct with Open.
type Registry struct {
	mu       sync.RWMutex
	entries  map[string]*entry
	order    []string // insertion order, oldest first, for bounded eviction
	dir      string
	tableDir string
	max      int
	clock    func() time.Time
	skipped  []string
	bytes    int64 // total serialized bytes resident, maintained by insert/evict
}

// Open creates a registry. If opts.Dir is non-empty the directory is created
// when missing and any previously persisted models in it are loaded. Temp
// files a crash left mid-write are removed from the model and table
// directories first.
func Open(opts Options) (*Registry, error) {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	tableDir := opts.TableDir
	if tableDir == "" {
		tableDir = opts.Dir
	}
	r := &Registry{
		entries:  make(map[string]*entry),
		dir:      opts.Dir,
		tableDir: tableDir,
		max:      opts.MaxModels,
		clock:    clock,
	}
	if r.tableDir != "" {
		if err := os.MkdirAll(r.tableDir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating table directory: %w", err)
		}
		atomicfile.Sweep(r.tableDir)
	}
	if r.dir != "" {
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating store directory: %w", err)
		}
		atomicfile.Sweep(r.dir)
		if err := r.loadDir(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loadDir restores persisted models from the store directory, oldest first so
// the eviction order matches the original insertion order. Files that fail to
// read, decode, or hash to their own name are skipped (and reported via
// LoadWarnings) rather than failing the open: one stale or foreign file must
// not take every good model out of service.
func (r *Registry) loadDir() error {
	glob, err := filepath.Glob(filepath.Join(r.dir, "*.json"))
	if err != nil {
		return fmt.Errorf("registry: scanning store directory: %w", err)
	}
	type stamped struct {
		path string
		mod  time.Time
	}
	files := make([]stamped, 0, len(glob))
	for _, path := range glob {
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
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
		data, err := os.ReadFile(f.path)
		if err != nil {
			r.skipped = append(r.skipped, fmt.Sprintf("%s: %v", f.path, err))
			continue
		}
		m, err := core.UnmarshalModel(data)
		if err != nil {
			r.skipped = append(r.skipped, fmt.Sprintf("%s: %v", f.path, err))
			continue
		}
		id := core.ModelIDFromBytes(data)
		if want := strings.TrimSuffix(filepath.Base(f.path), ".json"); want != id {
			r.skipped = append(r.skipped, fmt.Sprintf("%s: content hashes to %s, not the name it was stored under", f.path, id))
			continue
		}
		r.insertLocked(id, data, m, f.mod)
	}
	// The bound holds for reloaded state too: a store written under a larger
	// (or no) bound is trimmed oldest-first, on disk as well as in memory.
	for r.max > 0 && len(r.order) > r.max {
		r.evictLocked(r.order[0])
	}
	return nil
}

// Put stores a fitted model and returns its content-addressed ID. Storing a
// model whose parameters are already resident is a no-op that returns the
// existing ID. When persistence is enabled the model file is written and
// fsync'd before the registry lock is taken and committed under it, so it is
// on disk before Put returns.
func (r *Registry) Put(m *core.FittedModel) (string, error) {
	data, err := core.MarshalModel(m)
	if err != nil {
		return "", err
	}
	id := core.ModelIDFromBytes(data)
	if _, ok := r.Stat(id); ok {
		return id, nil
	}
	// Cache a private decoded copy, not the caller's pointer: the caller may
	// mutate its model after Put, and the cached instance is handed out
	// shared via Model.
	cached, err := core.UnmarshalModel(data)
	if err != nil {
		return "", err
	}
	var staged *atomicfile.Staged
	if r.dir != "" {
		staged, err = atomicfile.Stage(r.dir, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			return "", fmt.Errorf("registry: %w", err)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; ok {
		staged.Discard()
		return id, nil
	}
	if staged != nil {
		if err := staged.Commit(filepath.Join(r.dir, id+".json")); err != nil {
			return "", fmt.Errorf("registry: %w", err)
		}
	}
	r.insertLocked(id, data, cached, r.clock())
	for r.max > 0 && len(r.order) > r.max {
		r.evictLocked(r.order[0])
	}
	return id, nil
}

// LoadWarnings reports the store files Open skipped because they could not be
// read, decoded, or verified against their content address. Operators should
// surface these: a skipped file is a model that silently left service.
func (r *Registry) LoadWarnings() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.skipped))
	copy(out, r.skipped)
	return out
}

// insertLocked adds an entry to the in-memory maps. Callers hold r.mu.
func (r *Registry) insertLocked(id string, data []byte, m *core.FittedModel, created time.Time) {
	r.entries[id] = &entry{
		data:    data,
		decoded: m,
		info: Info{
			ID:        id,
			ModelName: m.ModelName,
			N:         m.N,
			W:         m.W,
			Epsilon:   m.Epsilon,
			Private:   m.Private(),
			SizeBytes: len(data),
			CreatedAt: created,
		},
	}
	r.order = append(r.order, id)
	r.bytes += int64(len(data))
	registryPuts.Inc()
}

// Get returns a freshly decoded copy of the model with the given ID. The
// returned model is owned by the caller; mutating it cannot affect the
// registry.
func (r *Registry) Get(id string) (*core.FittedModel, bool) {
	r.mu.RLock()
	e, ok := r.entries[id]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	m, err := core.UnmarshalModel(e.data)
	if err != nil {
		// Stored bytes come from MarshalModel, so this cannot happen short of
		// memory corruption; fail closed rather than panic.
		return nil, false
	}
	return m, true
}

// Model returns the registry's own decoded instance of the model, avoiding
// the per-call decode Get pays. The returned model is shared and MUST be
// treated as read-only; it is the right accessor for hot serving paths
// (sampling never mutates a model), while Get remains the safe default for
// callers that may modify the result.
func (r *Registry) Model(id string) (*core.FittedModel, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	return e.decoded, true
}

// Bytes returns the canonical serialized form of a stored model, suitable for
// shipping over the wire without a decode/re-encode round trip.
func (r *Registry) Bytes(id string) ([]byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out, true
}

// Acceptance returns the cached acceptance table of a stored model, if one
// has been fitted. On a memory miss with table persistence configured, the
// table is loaded lazily from its <id>.table file and cached — a restarted
// service reuses tables fitted before the restart instead of re-refining.
// The returned slice is shared and MUST be treated as read-only (it can be
// large — O(4^w) — so hot paths avoid copying). The registry implements
// engine.AcceptanceCache with this pair of methods.
func (r *Registry) Acceptance(id string) ([]float64, bool) {
	r.mu.RLock()
	e, ok := r.entries[id]
	if ok && e.accept != nil {
		table := e.accept
		r.mu.RUnlock()
		return table, true
	}
	r.mu.RUnlock()
	if !ok || r.tableDir == "" {
		return nil, false
	}
	// Read outside the lock so table I/O never stalls model serving. Two
	// concurrent loaders at worst both read the same deterministic file.
	table, ok := r.loadTable(id)
	if !ok {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok = r.entries[id]
	if !ok {
		// Model evicted while loading; its table file is gone too.
		return nil, false
	}
	if e.accept == nil {
		e.accept = table
	}
	return e.accept, true
}

// SetAcceptance stores the acceptance table of a resident model, reporting
// whether the model exists. The table lives and dies with the model entry:
// evicting the model (explicitly or by the MaxModels bound) drops the table
// — and its persisted file — with it, so a re-fitted model can never serve
// a stale table. With table persistence configured the table is also written
// to <id>.table (content-addressed model IDs and the file's table version
// keep it valid for every build that fits the same table); persistence
// failures are logged and the in-memory table still serves, since a missing
// file merely costs a re-fit after restart.
//
// The file is staged (written and fsync'd) outside the lock and committed
// under it only while the model is resident, so an Evict that lands during
// the write cannot be undone by it: a table committed after the eviction
// would be a file for a model the registry no longer holds.
func (r *Registry) SetAcceptance(id string, table []float64) bool {
	var staged *atomicfile.Staged
	var err error
	if r.tableDir != "" {
		staged, err = atomicfile.Stage(r.tableDir, func(w io.Writer) error {
			_, err := w.Write(encodeTable(table))
			return err
		})
	}
	r.mu.Lock()
	e, ok := r.entries[id]
	if ok {
		e.accept = table
		if staged != nil {
			err = staged.Commit(r.tablePath(id))
		}
	}
	r.mu.Unlock()
	staged.Discard() // model evicted while staging; a no-op after Commit
	if ok && err != nil {
		slog.Error("registry: persisting acceptance table", "id", id, "err", err)
	}
	return ok
}

// Stat returns the listing metadata of one stored model.
func (r *Registry) Stat(id string) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return Info{}, false
	}
	return e.info, true
}

// List returns metadata for every resident model, oldest first.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.entries[id].info)
	}
	return out
}

// Len returns the number of resident models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// SizeBytes returns the total canonical serialized bytes resident in memory
// (model bytes only; cached acceptance tables are not counted).
func (r *Registry) SizeBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// Evict removes a model from the registry (and from disk, when persistence is
// enabled) and reports whether it was present.
func (r *Registry) Evict(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return false
	}
	r.evictLocked(id)
	return true
}

// evictLocked removes one entry. Callers hold r.mu.
func (r *Registry) evictLocked(id string) {
	if e, ok := r.entries[id]; ok {
		r.bytes -= int64(len(e.data))
		registryEvictions.Inc()
	}
	delete(r.entries, id)
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	if r.dir != "" {
		os.Remove(filepath.Join(r.dir, id+".json"))
	}
	if r.tableDir != "" {
		os.Remove(r.tablePath(id))
	}
}
