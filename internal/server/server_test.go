package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"agmdp/internal/engine"
	"agmdp/internal/registry"
)

// newTestServer builds a service over a fresh in-memory registry and a small
// engine, torn down with the test.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Config{Registry: reg, Engine: eng, SampleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postJSON sends body as JSON and returns the response.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decode reads a JSON response body into v and closes it.
func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// fitDataset fits a model from a named dataset and returns its ID.
func fitDataset(t *testing.T, ts *httptest.Server, epsilon float64) string {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/fit", map[string]any{
		"dataset": map[string]any{"name": "lastfm", "scale": 0.1, "seed": 1},
		"epsilon": epsilon,
		"seed":    3,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("fit: status %d: %s", resp.StatusCode, b)
	}
	var fr fitResponse
	decode(t, resp, &fr)
	if fr.ID == "" {
		t.Fatal("fit returned empty ID")
	}
	return fr.ID
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthzResponse
	decode(t, resp, &hr)
	if hr.Status != "ok" || hr.Engine.Workers != 2 {
		t.Fatalf("healthz = %+v", hr)
	}
	if hr.UptimeSeconds < 0 || hr.GoVersion == "" || hr.Build == "" {
		t.Fatalf("healthz build/uptime fields = %+v", hr)
	}
	if hr.ModelBytes != 0 || hr.GraphBytes != 0 {
		t.Fatalf("empty stores report bytes: %+v", hr)
	}
}

func TestFitSampleRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)

	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 7, "iterations": 1})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sample: status %d: %s", resp.StatusCode, b)
	}
	var sr sampleResponse
	decode(t, resp, &sr)
	if sr.Nodes == 0 || sr.Edges == 0 || sr.Graph == nil {
		t.Fatalf("sample = %+v", sr)
	}
	if len(sr.Graph.Edges) != sr.Edges {
		t.Fatalf("payload has %d edges, summary says %d", len(sr.Graph.Edges), sr.Edges)
	}

	// The model shows up in listings and metadata.
	lresp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var lr listModelsResponse
	decode(t, lresp, &lr)
	if len(lr.Models) != 1 || lr.Models[0].ID != id || !lr.Models[0].Private {
		t.Fatalf("models = %+v", lr.Models)
	}
	gresp, err := http.Get(ts.URL + "/v1/models/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info registry.Info
	decode(t, gresp, &info)
	if info.ID != id || info.Epsilon != 1.0 {
		t.Fatalf("model info = %+v", info)
	}
}

func TestSampleTextFormatByteIdentical(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)
	fetch := func() []byte {
		resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 11, "iterations": 1, "format": "text"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Content-Type = %s", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := fetch(), fetch()
	if !bytes.Equal(a, b) {
		t.Fatal("equal seeds did not give byte-identical graph text")
	}
	if !bytes.HasPrefix(a, []byte("# agmdp graph")) {
		t.Fatalf("unexpected body prefix: %.40s", a)
	}
}

func TestConcurrentSamples(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)
	const k = 8
	type result struct {
		seed  int64
		edges int
		err   error
	}
	results := make(chan result, k)
	for i := 0; i < k; i++ {
		go func(seed int64) {
			resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": seed, "iterations": 1, "format": "summary"})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results <- result{seed: seed, err: fmt.Errorf("status %d", resp.StatusCode)}
				return
			}
			var sr sampleResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				results <- result{seed: seed, err: err}
				return
			}
			results <- result{seed: seed, edges: sr.Edges}
		}(int64(i) + 1)
	}
	for i := 0; i < k; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("seed %d: %v", r.seed, r.err)
		}
		if r.edges == 0 {
			t.Fatalf("seed %d: empty graph", r.seed)
		}
	}
}

func TestFitInlineGraphAndNonPrivate(t *testing.T) {
	ts := newTestServer(t)
	edges := [][2]int{}
	for i := 0; i < 29; i++ {
		edges = append(edges, [2]int{i, i + 1}, [2]int{i, (i + 2) % 30})
	}
	resp := postJSON(t, ts.URL+"/v1/fit", map[string]any{
		"graph": map[string]any{"n": 30, "w": 1, "edges": edges, "attrs": make([]uint64, 30)},
		"model": "fcl",
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("fit: status %d: %s", resp.StatusCode, b)
	}
	var fr fitResponse
	decode(t, resp, &fr)
	if fr.Info.Private || fr.Info.ModelName != "FCL" {
		t.Fatalf("info = %+v", fr.Info)
	}
	sresp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": fr.ID, "seed": 2, "format": "summary"})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sample after inline fit: status %d", sresp.StatusCode)
	}
	sresp.Body.Close()
}

func TestHandlerErrors(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"sample unknown model", "POST", "/v1/sample", map[string]any{"id": "feedfeed"}, http.StatusNotFound},
		{"sample bad format", "POST", "/v1/sample", map[string]any{"id": id, "format": "yaml"}, http.StatusBadRequest},
		{"sample malformed body", "POST", "/v1/sample", nil, http.StatusBadRequest},
		{"fit neither input", "POST", "/v1/fit", map[string]any{"epsilon": 1.0}, http.StatusBadRequest},
		{"fit both inputs", "POST", "/v1/fit", map[string]any{
			"graph":   map[string]any{"n": 1, "w": 0},
			"dataset": map[string]any{"name": "lastfm"},
		}, http.StatusBadRequest},
		{"fit unknown dataset", "POST", "/v1/fit", map[string]any{"dataset": map[string]any{"name": "nope"}}, http.StatusBadRequest},
		{"fit negative epsilon", "POST", "/v1/fit", map[string]any{
			"dataset": map[string]any{"name": "lastfm", "scale": 0.05}, "epsilon": -3.0,
		}, http.StatusBadRequest},
		{"fit oversized scale", "POST", "/v1/fit", map[string]any{
			"dataset": map[string]any{"name": "pokec", "scale": 1e6},
		}, http.StatusBadRequest},
		{"fit oversized inline graph", "POST", "/v1/fit", map[string]any{
			"graph": map[string]any{"n": 2_000_000_000, "w": 0, "edges": [][2]int{}},
		}, http.StatusBadRequest},
		{"fit oversized attribute width", "POST", "/v1/fit", map[string]any{
			"graph": map[string]any{"n": 2, "w": 31, "edges": [][2]int{{0, 1}}},
		}, http.StatusBadRequest},
		{"fit bad model", "POST", "/v1/fit", map[string]any{
			"dataset": map[string]any{"name": "lastfm", "scale": 0.05}, "model": "gnp",
		}, http.StatusBadRequest},
		{"fit bad edge", "POST", "/v1/fit", map[string]any{
			"graph": map[string]any{"n": 2, "w": 0, "edges": [][2]int{{0, 5}}},
		}, http.StatusBadRequest},
		{"get missing model", "GET", "/v1/models/deadbeef", nil, http.StatusNotFound},
		{"evict missing model", "DELETE", "/v1/models/deadbeef", nil, http.StatusNotFound},
		// The unversioned paths are not routes.
		{"unversioned healthz", "GET", "/healthz", nil, http.StatusNotFound},
		{"unversioned list models", "GET", "/models", nil, http.StatusNotFound},
		{"unversioned get model", "GET", "/models/" + id, nil, http.StatusNotFound},
		{"unversioned evict model", "DELETE", "/models/" + id, nil, http.StatusNotFound},
		{"unversioned fit", "POST", "/fit", map[string]any{"dataset": map[string]any{"name": "lastfm", "scale": 0.05}}, http.StatusNotFound},
		{"unversioned sample", "POST", "/sample", map[string]any{"id": id, "seed": 1}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			switch tc.method {
			case "POST":
				if tc.body == nil {
					resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader("{not json"))
				} else {
					resp = postJSON(t, ts.URL+tc.path, tc.body)
				}
			case "GET":
				resp, err = http.Get(ts.URL + tc.path)
			case "DELETE":
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+tc.path, nil)
				resp, err = http.DefaultClient.Do(req)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, b)
			}
		})
	}
}

func TestEvictModel(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("evict: status %d", resp.StatusCode)
	}
	sresp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id})
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusNotFound {
		t.Fatalf("sample after evict: status %d, want 404", sresp.StatusCode)
	}
}

func TestGetModelFull(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)
	resp, err := http.Get(ts.URL + "/v1/models/" + id + "?full=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env["version"] != float64(1) || env["model"] != "TriCycLe" {
		t.Fatalf("full model = %v", env)
	}
	// full=0 and full=false mean metadata, not the serialized model.
	for _, v := range []string{"0", "false"} {
		resp, err := http.Get(ts.URL + "/v1/models/" + id + "?full=" + v)
		if err != nil {
			t.Fatal(err)
		}
		var info registry.Info
		decode(t, resp, &info)
		if info.ID != id {
			t.Fatalf("full=%s: got %+v, want metadata", v, info)
		}
	}
}

// TestSampleEchoesDrawnSeed covers auto-seeded requests: the response must
// carry the seed the engine actually used, and replaying that seed must
// reproduce the graph.
func TestSampleEchoesDrawnSeed(t *testing.T) {
	ts := newTestServer(t)
	id := fitDataset(t, ts, 1.0)
	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "iterations": 1, "format": "summary"})
	var sr sampleResponse
	decode(t, resp, &sr)
	if sr.Seed == 0 {
		t.Fatal("auto-seeded sample did not report the drawn seed")
	}
	replay := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": sr.Seed, "iterations": 1, "format": "summary"})
	var rr sampleResponse
	decode(t, replay, &rr)
	if rr.Edges != sr.Edges || rr.Triangles != sr.Triangles {
		t.Fatalf("replaying reported seed %d gave %+v, want %+v", sr.Seed, rr, sr)
	}
}

// newCachedTestServer mirrors the production wiring of cmd/agmdp-serve: the
// registry doubles as the engine's acceptance-table cache.
func newCachedTestServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1, Acceptance: reg})
	t.Cleanup(eng.Close)
	srv, err := New(Config{Registry: reg, Engine: eng, SampleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestSampleUsesAcceptanceCacheDeterministically(t *testing.T) {
	ts, reg := newCachedTestServer(t)
	id := fitDataset(t, ts, 1.0)
	fetch := func() []byte {
		resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 21, "format": "text"})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cold := fetch()
	if _, ok := reg.Acceptance(id); !ok {
		t.Fatal("default-shaped sample did not populate the acceptance cache")
	}
	if warm := fetch(); !bytes.Equal(cold, warm) {
		t.Fatal("warm acceptance cache changed a seeded sample")
	}
	// Evicting the model drops the table; re-fitting the same input brings
	// back the same content address and the samples stay reproducible.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+id, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("evict failed: %v %v", err, resp.StatusCode)
	}
	if id2 := fitDataset(t, ts, 1.0); id2 != id {
		t.Fatalf("re-fit changed the model ID: %s vs %s", id2, id)
	}
	if refit := fetch(); !bytes.Equal(cold, refit) {
		t.Fatal("re-fitted model produced a different seeded sample")
	}
}

func TestSampleParallelismField(t *testing.T) {
	ts, _ := newCachedTestServer(t)
	id := fitDataset(t, ts, 1.0)
	fetch := func(par int) []byte {
		resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{
			"id": id, "seed": 23, "format": "text", "parallelism": par,
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Equal seeds at equal parallelism are byte-identical.
	if !bytes.Equal(fetch(2), fetch(2)) {
		t.Fatal("same seed + same parallelism gave different samples")
	}
	// Negative parallelism is rejected.
	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 1, "parallelism": -2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative parallelism: status %d, want 400", resp.StatusCode)
	}
}
