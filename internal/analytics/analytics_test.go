package analytics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"agmdp/internal/experiments"
	"agmdp/internal/graph"
	"agmdp/internal/parallel"
)

// testGraph builds a deterministic attributed graph keyed by seed.
func testGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(40)
	b := graph.NewBuilder(n, 2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.15 {
				b.AddEdge(u, v)
			}
		}
	}
	for i := 0; i < n; i++ {
		b.SetAttr(i, graph.AttrVector(rng.Intn(4)))
	}
	return b.Finalize()
}

// mapSource is a GraphSource over a fixed map.
type mapSource map[string]*graph.Graph

func (m mapSource) Get(id string) (*graph.Graph, bool) {
	g, ok := m[id]
	return g, ok
}

func TestComputeMatchesPrimitives(t *testing.T) {
	g := testGraph(1)
	b := Compute("gid", g, nil)
	if b.GraphID != "gid" || b.Version != BundleVersion {
		t.Fatalf("identity = (%q, %d)", b.GraphID, b.Version)
	}
	if b.Nodes != g.NumNodes() || b.Edges != g.NumEdges() || b.Attributes != g.NumAttributes() {
		t.Fatalf("sizes = %d/%d/%d", b.Nodes, b.Edges, b.Attributes)
	}
	if b.Triangles != g.Triangles() || b.Wedges != g.Wedges() {
		t.Fatalf("triangles/wedges = %d/%d, want %d/%d", b.Triangles, b.Wedges, g.Triangles(), g.Wedges())
	}
	if b.AvgLocalClustering != g.AverageLocalClustering() || b.GlobalClustering != g.GlobalClustering() {
		t.Fatalf("clustering = %v/%v", b.AvgLocalClustering, b.GlobalClustering)
	}
	if b.MaxDegree != g.MaxDegree() || b.AverageDegree != g.AverageDegree() {
		t.Fatalf("degrees = %d/%v", b.MaxDegree, b.AverageDegree)
	}
	comps := g.ConnectedComponents()
	if b.Components != len(comps) || b.LargestComponent != len(comps[0]) {
		t.Fatalf("components = %d/%d", b.Components, b.LargestComponent)
	}
	hist := g.DegreeHistogram()
	total := 0
	lastDeg := -1
	for _, bucket := range b.DegreeHistogram {
		if bucket.Degree <= lastDeg {
			t.Fatalf("histogram not sorted ascending: %d after %d", bucket.Degree, lastDeg)
		}
		lastDeg = bucket.Degree
		if hist[bucket.Degree] != bucket.Count {
			t.Fatalf("histogram[%d] = %d, want %d", bucket.Degree, bucket.Count, hist[bucket.Degree])
		}
		total += bucket.Count
	}
	if total != g.NumNodes() {
		t.Fatalf("histogram counts sum to %d, want %d", total, g.NumNodes())
	}
}

func TestComputeDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	g := testGraph(2)
	base, err := json.Marshal(Compute("gid", g, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7} {
		parallel.SetParallelism(workers)
		got, err := json.Marshal(Compute("gid", g, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, got) {
			t.Fatalf("bundle at %d workers differs from sequential:\n%s\n%s", workers, base, got)
		}
	}
}

func TestComputeObservesStages(t *testing.T) {
	g := testGraph(3)
	seen := map[string]int{}
	Compute("gid", g, func(stage string, _ time.Duration) { seen[stage]++ })
	for _, stage := range []string{"degrees", "structure", "components"} {
		if seen[stage] != 1 {
			t.Fatalf("stage %q observed %d times: %v", stage, seen[stage], seen)
		}
	}
}

func TestCompareSelfIsZero(t *testing.T) {
	g := testGraph(4)
	u := experiments.Measure(g).Compare(experiments.Measure(g))
	if u != (experiments.GraphMetrics{}) {
		t.Fatalf("self-comparison is non-zero: %+v", u)
	}
}

func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetParallelism(parallel.SetParallelism(1))
	a, b := testGraph(5), testGraph(6)
	base := experiments.Measure(a).Compare(experiments.Measure(b))
	for _, workers := range []int{0, 2, 5} {
		parallel.SetParallelism(workers)
		if got := experiments.Measure(a).Compare(experiments.Measure(b)); got != base {
			t.Fatalf("metrics at %d workers = %+v, want %+v", workers, got, base)
		}
	}
}

func TestCacheHitAfterCompute(t *testing.T) {
	g := testGraph(7)
	c, err := NewCache(Options{Source: mapSource{"a": g}})
	if err != nil {
		t.Fatal(err)
	}
	hits0, computes0 := cacheHits.Value(), cacheComputes.Value()
	raw1, b1, err := c.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if b1.GraphID != "a" || b1.Nodes != g.NumNodes() {
		t.Fatalf("bundle = %+v", b1)
	}
	raw2, _, err := c.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("warm bytes differ from cold bytes")
	}
	if d := cacheComputes.Value() - computes0; d != 1 {
		t.Fatalf("computes = %d, want 1", d)
	}
	if d := cacheHits.Value() - hits0; d != 1 {
		t.Fatalf("hits = %d, want 1", d)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheNotFound(t *testing.T) {
	c, err := NewCache(Options{Source: mapSource{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("missing"); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// The failed lookup must not leave a placeholder that poisons a later
	// Get after the graph appears.
	if c.Len() != 0 {
		t.Fatalf("Len = %d after failed Get", c.Len())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	g := testGraph(8)
	c, err := NewCache(Options{Source: mapSource{"a": g}})
	if err != nil {
		t.Fatal(err)
	}
	computes0 := cacheComputes.Value()
	var wg sync.WaitGroup
	raws := make([][]byte, 16)
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _, err := c.Get("a")
			if err != nil {
				t.Error(err)
				return
			}
			raws[i] = raw
		}(i)
	}
	wg.Wait()
	if d := cacheComputes.Value() - computes0; d != 1 {
		t.Fatalf("concurrent cold Gets computed %d times, want 1", d)
	}
	for i := 1; i < len(raws); i++ {
		if !bytes.Equal(raws[0], raws[i]) {
			t.Fatal("concurrent Gets returned different bytes")
		}
	}
}

func TestCachePersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(9)
	c1, err := NewCache(Options{Source: mapSource{"a": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw1, _, err := c1.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.metrics")); err != nil {
		t.Fatalf("persisted file missing: %v", err)
	}

	// A fresh cache over the same directory reloads the persisted bundle
	// byte-identically, without recomputing — restart semantics.
	computes0 := cacheComputes.Value()
	c2, err := NewCache(Options{Source: mapSource{"a": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw2, b2, err := c2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("post-restart bytes differ:\n%s\n%s", raw1, raw2)
	}
	if b2.GraphID != "a" || b2.Version != BundleVersion {
		t.Fatalf("reloaded bundle identity = (%q, %d)", b2.GraphID, b2.Version)
	}
	if d := cacheComputes.Value() - computes0; d != 0 {
		t.Fatalf("restart recomputed %d times, want 0", d)
	}
	if len(c2.Warnings()) != 0 {
		t.Fatalf("warnings = %v", c2.Warnings())
	}
}

func TestCacheCorruptFileRecomputes(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(10)
	c1, err := NewCache(Options{Source: mapSource{"a": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw1, _, err := c1.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.metrics")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(Options{Source: mapSource{"a": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	computes0 := cacheComputes.Value()
	raw2, _, err := c2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("recomputed bundle differs from the original")
	}
	if d := cacheComputes.Value() - computes0; d != 1 {
		t.Fatalf("computes = %d, want 1 (corrupt file must recompute)", d)
	}
	warnings := c2.Warnings()
	if len(warnings) != 1 || !strings.Contains(warnings[0], "corrupt") {
		t.Fatalf("warnings = %v, want one corrupt-file entry", warnings)
	}
	// The damaged file was rewritten: a third cache reloads cleanly.
	c3, err := NewCache(Options{Source: mapSource{"a": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw3, _, err := c3.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw3) || len(c3.Warnings()) != 0 {
		t.Fatalf("rewritten file did not reload cleanly (warnings %v)", c3.Warnings())
	}
}

func TestCacheRejectsMismatchedEnvelope(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(11)
	c1, err := NewCache(Options{Source: mapSource{"a": g, "b": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Get("a"); err != nil {
		t.Fatal(err)
	}
	// A bundle persisted for one ID must not be served for another, and a
	// future bundle version must be recomputed, not trusted.
	data, err := os.ReadFile(filepath.Join(dir, "a.metrics"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.metrics"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(Options{Source: mapSource{"a": g, "b": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	computes0 := cacheComputes.Value()
	if _, _, err := c2.Get("b"); err != nil {
		t.Fatal(err)
	}
	if d := cacheComputes.Value() - computes0; d != 1 {
		t.Fatalf("computes = %d, want 1 (mismatched graph_id must recompute)", d)
	}
	if warnings := c2.Warnings(); len(warnings) != 1 {
		t.Fatalf("warnings = %v", warnings)
	}
}

func TestCacheLRUBound(t *testing.T) {
	src := mapSource{}
	for i := 0; i < 4; i++ {
		src[fmt.Sprintf("g%d", i)] = testGraph(20 + int64(i))
	}
	c, err := NewCache(Options{Source: src, MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := c.Get(fmt.Sprintf("g%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// The evicted entries recompute on demand (no persistence configured).
	computes0 := cacheComputes.Value()
	if _, _, err := c.Get("g0"); err != nil {
		t.Fatal(err)
	}
	if d := cacheComputes.Value() - computes0; d != 1 {
		t.Fatalf("computes after eviction = %d, want 1", d)
	}
}

func TestCacheEvict(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(12)
	c, err := NewCache(Options{Source: mapSource{"a": g}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("a"); err != nil {
		t.Fatal(err)
	}
	if !c.Evict("a") {
		t.Fatal("Evict reported nothing removed")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Evict", c.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "a.metrics")); !os.IsNotExist(err) {
		t.Fatalf("persisted file survived Evict: %v", err)
	}
	if c.Evict("a") {
		t.Fatal("second Evict reported a removal")
	}
}
