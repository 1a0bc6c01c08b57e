package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"agmdp/internal/engine"
	"agmdp/internal/obs"
	"agmdp/internal/registry"
)

// newObservedServer builds a service over a fresh, hermetic metrics registry,
// so counter-value assertions cannot be perturbed by other tests sharing the
// process-wide default registry.
func newObservedServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, Seed: 1})
	t.Cleanup(eng.Close)
	metrics := obs.NewRegistry()
	srv, err := New(Config{Registry: reg, Engine: eng, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, metrics
}

// get fetches a URL and returns the response and full body.
func get(t *testing.T, url string) (*http.Response, string) {
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
	return resp, string(body)
}

func TestMetricsExposition(t *testing.T) {
	ts, _ := newObservedServer(t)
	// One served request gives the per-route families a child to expose.
	if resp, _ := get(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE agmdp_http_requests_total counter",
		`agmdp_http_requests_total{route="GET /v1/healthz",method="GET",code="200"} 1`,
		"# TYPE agmdp_http_request_duration_seconds histogram",
		`agmdp_http_request_duration_seconds_bucket{route="GET /v1/healthz",le="+Inf"} 1`,
		`agmdp_http_request_duration_seconds_count{route="GET /v1/healthz"} 1`,
		"# TYPE agmdp_models_resident gauge",
		"agmdp_models_resident 0",
		"agmdp_graphs_bytes 0",
		"agmdp_jobs_retained 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

func TestStatsJSON(t *testing.T) {
	ts, _ := newObservedServer(t)
	if resp, _ := get(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	decode(t, resp, &stats)
	if stats.UptimeSeconds < 0 {
		t.Fatalf("negative uptime %v", stats.UptimeSeconds)
	}
	families := make(map[string]obs.FamilySnapshot, len(stats.Metrics))
	for _, f := range stats.Metrics {
		families[f.Name] = f
	}
	reqs, ok := families["agmdp_http_requests_total"]
	if !ok || reqs.Kind != obs.KindCounter || len(reqs.Metrics) == 0 {
		t.Fatalf("stats missing request counter: %+v", reqs)
	}
	found := false
	for _, m := range reqs.Metrics {
		if m.Labels["route"] == "GET /v1/healthz" && m.Labels["code"] == "200" && m.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no healthz sample in %+v", reqs.Metrics)
	}
	dur, ok := families["agmdp_http_request_duration_seconds"]
	if !ok || dur.Kind != obs.KindHistogram {
		t.Fatalf("stats missing duration histogram: %+v", dur)
	}
	for _, m := range dur.Metrics {
		if m.Labels["route"] == "GET /v1/healthz" && m.Count < 1 {
			t.Fatalf("healthz duration histogram empty: %+v", m)
		}
	}
}

func TestMiddlewareRequestIDAndStatus(t *testing.T) {
	ts, metrics := newObservedServer(t)

	// A client-supplied request ID is propagated to the response.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-supplied-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-supplied-id" {
		t.Fatalf("request ID not propagated: %q", got)
	}

	// Without one, the middleware generates a 16-character ID.
	resp2, _ := get(t, ts.URL+"/v1/healthz")
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("generated request ID %q, want 16 characters", got)
	}

	// Unrouted paths are recorded under a single bounded label, with the 404
	// the mux wrote.
	if resp3, _ := get(t, ts.URL+"/no/such/path"); resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unrouted status %d", resp3.StatusCode)
	}

	var healthzHits, unmatchedHits float64
	for _, f := range metrics.Snapshot() {
		if f.Name != "agmdp_http_requests_total" {
			continue
		}
		for _, m := range f.Metrics {
			switch {
			case m.Labels["route"] == "GET /v1/healthz" && m.Labels["code"] == "200":
				healthzHits = m.Value
			case m.Labels["route"] == "unmatched" && m.Labels["code"] == "404":
				unmatchedHits = m.Value
			}
		}
	}
	if healthzHits != 2 {
		t.Errorf("healthz hits = %v, want 2", healthzHits)
	}
	if unmatchedHits != 1 {
		t.Errorf("unmatched 404 hits = %v, want 1", unmatchedHits)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	// Default: no pprof routes.
	ts, _ := newObservedServer(t)
	if resp, _ := get(t, ts.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof exposed without the flag: status %d", resp.StatusCode)
	}

	// With Pprof set the index serves.
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, Seed: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Config{Registry: reg, Engine: eng, Metrics: obs.NewRegistry(), Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	resp, body := get(t, ts2.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}
