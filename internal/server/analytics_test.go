package server

// Serve-level analytics tests: bundle byte-identity across cold, warm and
// restarted serves, corrupt-cache recovery, the evaluate endpoint in both
// modes, sample-request memoisation, and tenant scoping of both new routes.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"agmdp/internal/analytics"
	"agmdp/internal/engine"
	"agmdp/internal/experiments"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/registry"
	"agmdp/internal/tenant"
)

// newAnalyticsServer builds the service around a persistent graph store and
// a dir-backed analytics cache sharing dir, mirroring cmd/agmdp-serve's
// -graph-store wiring. The returned cache lets tests inspect warnings.
func newAnalyticsServer(t *testing.T, dir string) (*httptest.Server, *analytics.Cache) {
	t.Helper()
	store, err := graphstore.Open(graphstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := analytics.NewCache(analytics.Options{Source: store, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1, Acceptance: reg})
	t.Cleanup(eng.Close)
	mgr, err := jobs.New(jobs.Options{Engine: eng, Store: store, Models: reg, SampleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv, err := New(Config{
		Registry:      reg,
		Engine:        eng,
		Graphs:        store,
		Jobs:          mgr,
		Analytics:     cache,
		SampleTimeout: 30 * time.Second,
		MaxJobSamples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, cache
}

// getBody fetches a URL, asserting the status, and returns the raw body.
func getBody(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantStatus, body)
	}
	return body
}

// metricValue reads one counter from the Prometheus exposition on /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	body := getBody(t, ts.URL+"/metrics", http.StatusOK)
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	return 0
}

func TestGraphMetricsColdWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newAnalyticsServer(t, dir)
	id := uploadBinary(t, ts, testUploadGraph(11))
	url := ts.URL + "/v1/graphs/" + id + "/metrics"

	hits0 := metricValue(t, ts, "agmdp_analytics_cache_hits_total")
	computes0 := metricValue(t, ts, "agmdp_analytics_computes_total")
	cold := getBody(t, url, http.StatusOK)
	warm := getBody(t, url, http.StatusOK)
	if string(cold) != string(warm) {
		t.Fatalf("warm body differs from cold:\n%s\n%s", cold, warm)
	}
	if !strings.Contains(string(cold), `"graph_id":"`+id+`"`) ||
		!strings.Contains(string(cold), `"degree_histogram"`) {
		t.Fatalf("bundle missing expected fields: %s", cold)
	}
	if d := metricValue(t, ts, "agmdp_analytics_computes_total") - computes0; d != 1 {
		t.Fatalf("computes delta = %v, want 1 (warm serve must not recompute)", d)
	}
	if d := metricValue(t, ts, "agmdp_analytics_cache_hits_total") - hits0; d != 1 {
		t.Fatalf("hits delta = %v, want 1", d)
	}

	// A restarted server over the same directory serves the persisted bundle
	// byte-identically without recomputing.
	ts.Close()
	ts2, cache2 := newAnalyticsServer(t, dir)
	computes1 := metricValue(t, ts2, "agmdp_analytics_computes_total")
	reloaded := getBody(t, ts2.URL+"/v1/graphs/"+id+"/metrics", http.StatusOK)
	if string(reloaded) != string(cold) {
		t.Fatalf("post-restart body differs:\n%s\n%s", cold, reloaded)
	}
	if d := metricValue(t, ts2, "agmdp_analytics_computes_total") - computes1; d != 0 {
		t.Fatalf("restart recomputed %v bundles, want 0", d)
	}
	if w := cache2.Warnings(); len(w) != 0 {
		t.Fatalf("warnings = %v", w)
	}
}

func TestGraphMetricsCorruptCacheRecovers(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newAnalyticsServer(t, dir)
	id := uploadBinary(t, ts, testUploadGraph(12))
	want := getBody(t, ts.URL+"/v1/graphs/"+id+"/metrics", http.StatusOK)
	ts.Close()

	if err := os.WriteFile(filepath.Join(dir, id+".metrics"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts2, cache2 := newAnalyticsServer(t, dir)
	got := getBody(t, ts2.URL+"/v1/graphs/"+id+"/metrics", http.StatusOK)
	if string(got) != string(want) {
		t.Fatalf("recomputed bundle differs:\n%s\n%s", want, got)
	}
	if w := cache2.Warnings(); len(w) != 1 || !strings.Contains(w[0], id) {
		t.Fatalf("warnings = %v, want one entry naming the damaged file", w)
	}
}

func TestGraphMetricsUnknownGraph(t *testing.T) {
	ts, _ := newV1TestServer(t)
	getBody(t, ts.URL+"/v1/graphs/deadbeefdeadbeef/metrics", http.StatusNotFound)
}

func TestGraphDeleteEvictsMetrics(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newAnalyticsServer(t, dir)
	id := uploadBinary(t, ts, testUploadGraph(13))
	getBody(t, ts.URL+"/v1/graphs/"+id+"/metrics", http.StatusOK)
	if _, err := os.Stat(filepath.Join(dir, id+".metrics")); err != nil {
		t.Fatalf("bundle not persisted: %v", err)
	}
	resp := doDelete(t, ts.URL+"/v1/graphs/"+id)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".metrics")); !os.IsNotExist(err) {
		t.Fatalf("metrics file survived graph deletion: %v", err)
	}
	getBody(t, ts.URL+"/v1/graphs/"+id+"/metrics", http.StatusNotFound)
}

func TestEvaluatePairModeEndpoint(t *testing.T) {
	ts, _ := newV1TestServer(t)
	id := uploadBinary(t, ts, testUploadGraph(14))
	resp := postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
		"source_graph_id": id, "synthetic_graph_id": id,
	})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("evaluate = %d: %s", resp.StatusCode, b)
	}
	var jr jobResponse
	decode(t, resp, &jr)
	done := pollJob(t, ts, jr.ID)
	if done.Status != jobs.StatusDone || done.Kind != jobs.KindEvaluate {
		t.Fatalf("job = %+v", done)
	}
	ev := done.Eval
	if ev == nil || ev.SourceGraphID != id || ev.SyntheticGraphID != id || len(ev.Samples) != 1 {
		t.Fatalf("eval = %+v", ev)
	}
	// Self-evaluation: every error column is exactly zero.
	if m := ev.Samples[0].Metrics; m == nil || *m != (experiments.GraphMetrics{}) {
		t.Fatalf("self-evaluation metrics = %+v", m)
	}
}

func TestEvaluateModelModeEndpoint(t *testing.T) {
	ts, _ := newV1TestServer(t)
	graphID := uploadBinary(t, ts, testUploadGraph(15))
	resp := postJSON(t, ts.URL+"/v1/fit", map[string]any{
		"graph_id": graphID, "epsilon": 1.0, "seed": 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit = %d", resp.StatusCode)
	}
	var fr fitResponse
	decode(t, resp, &fr)

	resp = postJSON(t, ts.URL+"/v1/evaluate", map[string]any{
		"source_graph_id": graphID, "model_id": fr.ID,
		"count": 2, "seed": 40, "iterations": 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("evaluate = %d: %s", resp.StatusCode, b)
	}
	var jr jobResponse
	decode(t, resp, &jr)
	done := pollJob(t, ts, jr.ID)
	if done.Status != jobs.StatusDone || done.Completed != 2 {
		t.Fatalf("job = %+v", done)
	}
	if done.Eval == nil || done.Eval.ModelID != fr.ID || len(done.Eval.Samples) != 2 || done.Eval.Average == nil {
		t.Fatalf("eval = %+v", done.Eval)
	}
	for i, s := range done.Eval.Samples {
		if s.Seed != 40+int64(i) || s.Metrics == nil || s.Nodes == 0 {
			t.Fatalf("sample %d = %+v", i, s)
		}
	}
	// The wire names of the eight error columns, per sample and on average.
	var raw struct {
		Eval struct {
			Samples []struct {
				Metrics map[string]float64 `json:"metrics"`
			} `json:"samples"`
			Average map[string]float64 `json:"average"`
		} `json:"eval"`
	}
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/jobs/"+jr.ID, http.StatusOK), &raw); err != nil {
		t.Fatal(err)
	}
	want := []string{"hellinger_degree", "hellinger_theta_f", "ks_degree", "mre_avg_clustering",
		"mre_edges", "mre_global_clustering", "mre_theta_f", "mre_triangles"}
	for _, row := range []map[string]float64{raw.Eval.Samples[0].Metrics, raw.Eval.Samples[1].Metrics, raw.Eval.Average} {
		keys := make([]string, 0, len(row))
		for k := range row {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("metric keys = %v, want %v", keys, want)
		}
	}
}

func TestEvaluateValidationEndpoint(t *testing.T) {
	ts, _ := newV1TestServer(t)
	id := uploadBinary(t, ts, testUploadGraph(16))
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"no source", map[string]any{"synthetic_graph_id": id}, http.StatusBadRequest},
		{"neither mode", map[string]any{"source_graph_id": id}, http.StatusBadRequest},
		{"both modes", map[string]any{"source_graph_id": id, "synthetic_graph_id": id, "model_id": "m"}, http.StatusBadRequest},
		{"pair mode with count", map[string]any{"source_graph_id": id, "synthetic_graph_id": id, "count": 3}, http.StatusBadRequest},
		{"pair mode with parallelism", map[string]any{"source_graph_id": id, "synthetic_graph_id": id, "parallelism": 2}, http.StatusBadRequest},
		{"unknown source", map[string]any{"source_graph_id": "deadbeefdeadbeef", "synthetic_graph_id": id}, http.StatusNotFound},
		{"unknown synthetic", map[string]any{"source_graph_id": id, "synthetic_graph_id": "deadbeefdeadbeef"}, http.StatusNotFound},
		{"unknown model", map[string]any{"source_graph_id": id, "model_id": "nope"}, http.StatusNotFound},
		{"count over cap", map[string]any{"source_graph_id": id, "model_id": "nope", "count": 999}, http.StatusBadRequest},
		{"parallelism over bound", map[string]any{"source_graph_id": id, "model_id": "nope", "parallelism": 257}, http.StatusBadRequest},
		{"iterations over bound", map[string]any{"source_graph_id": id, "model_id": "nope", "iterations": 33}, http.StatusBadRequest},
		{"negative parallelism", map[string]any{"source_graph_id": id, "synthetic_graph_id": id, "parallelism": -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/evaluate", tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestAnalyticsTenantScoping(t *testing.T) {
	ts, _ := newTenantedServer(t, tenant.File{Tenants: []tenant.Tenant{
		{ID: "alpha", Key: "alpha-key"},
		{ID: "beta", Key: "beta-key"},
	}}, "")
	payload, _ := tenancyFixtureGraph()
	var gr graphResponse
	decode(t, doAuthed(t, "POST", ts.URL+"/v1/graphs", "alpha-key", payload), &gr)

	// The owner reads metrics; the other tenant sees 404 on both routes.
	resp := doAuthed(t, "GET", ts.URL+"/v1/graphs/"+gr.ID+"/metrics", "alpha-key", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha metrics = %d, want 200", resp.StatusCode)
	}
	resp = doAuthed(t, "GET", ts.URL+"/v1/graphs/"+gr.ID+"/metrics", "beta-key", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("beta metrics = %d, want 404", resp.StatusCode)
	}
	resp = doAuthed(t, "POST", ts.URL+"/v1/evaluate", "beta-key", map[string]any{
		"source_graph_id": gr.ID, "synthetic_graph_id": gr.ID,
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("beta evaluate of alpha's graph = %d, want 404", resp.StatusCode)
	}

	// The owner's evaluation runs, and the resulting job is invisible to beta.
	resp = doAuthed(t, "POST", ts.URL+"/v1/evaluate", "alpha-key", map[string]any{
		"source_graph_id": gr.ID, "synthetic_graph_id": gr.ID,
	})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("alpha evaluate = %d: %s", resp.StatusCode, b)
	}
	var jr jobResponse
	decode(t, resp, &jr)
	resp = doAuthed(t, "GET", ts.URL+"/v1/jobs/"+jr.ID, "beta-key", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("beta reads alpha's evaluate job = %d, want 404", resp.StatusCode)
	}
	resp = doAuthed(t, "GET", ts.URL+"/v1/jobs/"+jr.ID, "alpha-key", nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha reads own evaluate job = %d, want 200", resp.StatusCode)
	}
}
