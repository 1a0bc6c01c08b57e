package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/registry"
)

// newV1TestServer builds a service with an explicit graph store and jobs
// manager, mirroring the production wiring of cmd/agmdp-serve.
func newV1TestServer(t *testing.T) (*httptest.Server, *graphstore.Store) {
	t.Helper()
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return newV1TestServerWith(t, store), store
}

// newV1TestServerWith builds the service around a caller-supplied graph
// store (e.g. a persistent one reopened cold).
func newV1TestServerWith(t *testing.T, store *graphstore.Store) *httptest.Server {
	t.Helper()
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
		SampleTimeout: 30 * time.Second,
		MaxJobSamples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// testUploadGraph builds a deterministic attributed graph for upload tests.
func testUploadGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 40
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

// postBody posts raw bytes with a Content-Type and returns the response.
func postBody(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// doDelete issues a DELETE and returns the response.
func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// uploadBinary uploads g as a binary snapshot and returns its graph ID.
func uploadBinary(t *testing.T, ts *httptest.Server, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp := postBody(t, ts.URL+"/v1/graphs", "application/octet-stream", buf.Bytes())
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload: status %d: %s", resp.StatusCode, b)
	}
	var gr graphResponse
	decode(t, resp, &gr)
	if gr.ID == "" {
		t.Fatal("upload returned empty ID")
	}
	return gr.ID
}

// TestGraphUploadFormatsAgree uploads one graph in all three wire formats
// and checks content addressing collapses them to a single stored entry.
func TestGraphUploadFormatsAgree(t *testing.T) {
	ts, _ := newV1TestServer(t)
	g := testUploadGraph(1)

	binID := uploadBinary(t, ts, g)

	var text bytes.Buffer
	if err := g.WriteGraph(&text); err != nil {
		t.Fatal(err)
	}
	resp := postBody(t, ts.URL+"/v1/graphs", "text/plain", text.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("text upload: status %d", resp.StatusCode)
	}
	var fromText graphResponse
	decode(t, resp, &fromText)

	payload, err := json.Marshal(payloadFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	resp = postBody(t, ts.URL+"/v1/graphs", "application/json", payload)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("json upload: status %d", resp.StatusCode)
	}
	var fromJSON graphResponse
	decode(t, resp, &fromJSON)

	if fromText.ID != binID || fromJSON.ID != binID {
		t.Fatalf("formats produced different IDs: binary %s, text %s, json %s", binID, fromText.ID, fromJSON.ID)
	}

	// One resident entry, visible in the listing.
	lresp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var list listGraphsResponse
	decode(t, lresp, &list)
	if len(list.Graphs) != 1 || list.Graphs[0].ID != binID {
		t.Fatalf("graphs = %+v", list.Graphs)
	}
}

func TestGraphDownloadRoundTrip(t *testing.T) {
	ts, _ := newV1TestServer(t)
	g := testUploadGraph(2)
	id := uploadBinary(t, ts, g)

	// Stat.
	resp, err := http.Get(ts.URL + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info graphstore.Info
	decode(t, resp, &info)
	if info.ID != id || info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("stat = %+v", info)
	}

	// Binary download decodes back to the same graph.
	resp, err = http.Get(ts.URL + "/v1/graphs/" + id + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary Content-Type = %s", ct)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil || !g.Equal(back) {
		t.Fatalf("binary download does not round-trip: %v", err)
	}

	// Text download parses back to the same graph.
	resp, err = http.Get(ts.URL + "/v1/graphs/" + id + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := graph.ReadGraph(resp.Body, math.MaxInt32)
	resp.Body.Close()
	if err != nil || !g.Equal(fromText) {
		t.Fatalf("text download does not round-trip: %v", err)
	}

	// JSON download carries the inline payload.
	resp, err = http.Get(ts.URL + "/v1/graphs/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var p graphPayload
	decode(t, resp, &p)
	if p.N != g.NumNodes() || len(p.Edges) != g.NumEdges() {
		t.Fatalf("json download = n %d, %d edges", p.N, len(p.Edges))
	}

	// Delete, then every accessor 404s.
	dresp := doDelete(t, ts.URL+"/v1/graphs/"+id)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
}

// TestBinaryDownloadAndStatSkipDecode pins the O(header) serving invariant:
// against a cold (restarted) persistent store, stat and binary download leave
// the decoded-graph cache empty — the snapshot streams as-is — while the
// reshaping formats decode on demand.
func TestBinaryDownloadAndStatSkipDecode(t *testing.T) {
	dir := t.TempDir()
	seedStore, err := graphstore.Open(graphstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testUploadGraph(5)
	id, err := seedStore.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	seedStore.Close()
	store, err := graphstore.Open(graphstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newV1TestServerWith(t, store)

	resp, err := http.Get(ts.URL + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info graphstore.Info
	decode(t, resp, &info)
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("cold stat = %+v", info)
	}

	resp, err = http.Get(ts.URL + "/v1/graphs/" + id + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(data)) {
		t.Fatalf("Content-Length %s for %d body bytes", got, len(data))
	}
	back, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil || !g.Equal(back) {
		t.Fatalf("cold binary download does not round-trip: %v", err)
	}
	if n := store.DecodedLen(); n != 0 {
		t.Fatalf("stat + binary download decoded %d graphs; want zero decode", n)
	}

	// A reshaping format decodes lazily, exactly once.
	resp, err = http.Get(ts.URL + "/v1/graphs/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if n := store.DecodedLen(); n != 1 {
		t.Fatalf("json download left %d decoded graphs, want 1", n)
	}
}

func TestFitByGraphID(t *testing.T) {
	ts, _ := newV1TestServer(t)
	id := uploadBinary(t, ts, testUploadGraph(3))

	// Fit the stored graph twice by ID — the point of the graph store.
	var modelIDs []string
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/fit", map[string]any{
			"graph_id": id, "epsilon": 1.0, "seed": int64(i + 1),
		})
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("fit %d: status %d: %s", i, resp.StatusCode, b)
		}
		var fr fitResponse
		decode(t, resp, &fr)
		modelIDs = append(modelIDs, fr.ID)
	}
	if modelIDs[0] == modelIDs[1] {
		t.Fatal("private fits with different seeds produced the same model")
	}

	// Non-private fit by ID is deterministic: same graph, same model ID.
	fit := func() string {
		resp := postJSON(t, ts.URL+"/v1/fit", map[string]any{"graph_id": id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("non-private fit: status %d", resp.StatusCode)
		}
		var fr fitResponse
		decode(t, resp, &fr)
		return fr.ID
	}
	if fit() != fit() {
		t.Fatal("non-private fit by graph ID is not deterministic")
	}
}

// TestFitRejectsParallelismField checks that a fit body naming a worker
// count is refused as an unknown field on every fit path: the fit's
// measurement passes run on the process default and take no per-request
// count.
func TestFitRejectsParallelismField(t *testing.T) {
	ts, _ := newV1TestServer(t)
	fit := map[string]any{"dataset": map[string]any{"name": "lastfm", "scale": 0.1, "seed": 1}, "epsilon": 1.0, "seed": 3, "parallelism": 1}
	async := map[string]any{"async": true}
	for k, v := range fit {
		async[k] = v
	}
	for _, tc := range []struct {
		name, path string
		body       map[string]any
	}{
		{"sync", "/v1/fit", fit},
		{"async", "/v1/fit", async},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		var e struct{ Error string }
		decode(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "parallelism"`) {
			t.Errorf("%s: status %d error %q, want 400 naming the parallelism field", tc.name, resp.StatusCode, e.Error)
		}
	}
}

func TestSampleStoreAndBinaryFormat(t *testing.T) {
	ts, store := newV1TestServer(t)
	id := fitDataset(t, ts, 1.0)

	// store: true returns a graph ID instead of an inline graph.
	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 5, "iterations": 1, "store": true})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sample store: status %d: %s", resp.StatusCode, b)
	}
	var sr sampleResponse
	decode(t, resp, &sr)
	if sr.GraphID == "" || sr.Graph != nil {
		t.Fatalf("stored sample = %+v", sr)
	}
	stored, ok := store.Get(sr.GraphID)
	if !ok || stored.NumEdges() != sr.Edges {
		t.Fatalf("stored sample %s missing or inconsistent", sr.GraphID)
	}

	// format: binary streams a decodable snapshot of the same seed's graph.
	resp = postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 5, "iterations": 1, "format": "binary"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample binary: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary Content-Type = %s", ct)
	}
	g, err := graph.ReadBinary(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(stored) {
		t.Fatal("binary sample differs from the stored sample of the same seed")
	}
}

func TestJobLifecycle(t *testing.T) {
	ts, store := newV1TestServer(t)
	id := fitDataset(t, ts, 1.0)

	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{
		"id": id, "async": true, "count": 3, "seed": 11, "iterations": 1, "store": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var jr jobResponse
	decode(t, resp, &jr)
	if jr.ID == "" || jr.Count != 3 {
		t.Fatalf("job = %+v", jr.Info)
	}

	// Poll until done.
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, &jr)
		if jr.Status.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %+v", jr.Info)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if jr.Status != jobs.StatusDone || jr.Completed != 3 || len(jr.Results) != 3 {
		t.Fatalf("finished job = %+v (%d results)", jr.Info, len(jr.Results))
	}
	for _, res := range jr.Results {
		if res.GraphID == "" {
			t.Fatalf("result %+v has no stored graph", res)
		}
		if _, ok := store.Get(res.GraphID); !ok {
			t.Fatalf("stored graph %s missing", res.GraphID)
		}
	}

	// The job shows up in listings; deleting removes it.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list listJobsResponse
	decode(t, lresp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != jr.ID {
		t.Fatalf("jobs = %+v", list.Jobs)
	}
	dresp := doDelete(t, ts.URL+"/v1/jobs/"+jr.ID)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete job: status %d", dresp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/jobs/" + jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted job: status %d", gresp.StatusCode)
	}
}

// TestAsyncSampleMatchesSyncSamples: an async batch stores, for each i, the
// graph a synchronous stored sample at seed seed+i stores, and a format in
// the query is refused with async like one in the body.
func TestAsyncSampleMatchesSyncSamples(t *testing.T) {
	ts, _ := newV1TestServer(t)
	id := fitDataset(t, ts, 1.0)

	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "async": true, "count": 3, "seed": 11, "store": true})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("async sample: status %d: %s", resp.StatusCode, b)
	}
	var jr jobResponse
	decode(t, resp, &jr)
	if jr.Kind != jobs.KindSample || jr.Count != 3 || jr.ModelID != id {
		t.Fatalf("async sample job = %+v", jr.Info)
	}
	final := pollJob(t, ts, jr.ID)
	if final.Status != jobs.StatusDone || final.Stored != 3 || len(final.Results) != 3 {
		t.Fatalf("async sample job ended %+v (%d results)", final.Info, len(final.Results))
	}
	for _, res := range final.Results {
		resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 11 + res.Index, "store": true})
		var sr sampleResponse
		decode(t, resp, &sr)
		if res.Seed != int64(11+res.Index) || res.GraphID == "" || res.GraphID != sr.GraphID {
			t.Errorf("async sample %d: seed %d graph %s; sync sample at seed %d stored %s",
				res.Index, res.Seed, res.GraphID, 11+res.Index, sr.GraphID)
		}
	}

	resp = postJSON(t, ts.URL+"/v1/sample?format=text", map[string]any{"id": id, "async": true})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("async sample with a query format: status %d, want 400", resp.StatusCode)
	}
}

// TestV1TextUploadNodeLimitBeforeAllocating uploads a 22-byte text graph
// whose nodes directive passes MaxFitNodes. The upload must be refused at
// that line: sizing the graph by the count first would allocate tens of
// bytes per node (about 96 MB here) before the limit was checked.
func TestV1TextUploadNodeLimitBeforeAllocating(t *testing.T) {
	ts, _ := newV1TestServer(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := postBody(t, ts.URL+"/v1/graphs", "text/plain", []byte("nodes 3000000\nattrs 0\n"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("refusing the upload allocated %d bytes, want under 16 MiB", got)
	}
}

// TestV1HandlerErrors drives every v1-specific error status.
func TestV1HandlerErrors(t *testing.T) {
	ts, _ := newV1TestServer(t)
	modelID := fitDataset(t, ts, 1.0)
	graphID := uploadBinary(t, ts, testUploadGraph(4))

	bigPayload, err := json.Marshal(graphPayload{N: 3_000_000, Edges: [][2]int{}})
	if err != nil {
		t.Fatal(err)
	}
	widePayload, err := json.Marshal(graphPayload{N: 2, W: 20, Edges: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		method      string
		path        string
		contentType string
		body        []byte
		want        int
	}{
		{"upload malformed json", "POST", "/v1/graphs", "application/json", []byte("{not json"), http.StatusBadRequest},
		{"upload malformed text", "POST", "/v1/graphs", "text/plain", []byte("nonsense directive"), http.StatusBadRequest},
		{"upload malformed binary", "POST", "/v1/graphs", "application/octet-stream", []byte("XXXXXXXXgarbage"), http.StatusBadRequest},
		{"upload unsupported media type", "POST", "/v1/graphs", "application/xml", []byte("<g/>"), http.StatusUnsupportedMediaType},
		{"upload unparseable media type", "POST", "/v1/graphs", "zzz;;;", []byte("{}"), http.StatusUnsupportedMediaType},
		{"upload chunked media type", "POST", "/v1/graphs", "application/x-agmdp-csr-chunked", []byte("frames"), http.StatusUnsupportedMediaType},
		{"upload oversized graph", "POST", "/v1/graphs", "application/json", bigPayload, http.StatusBadRequest},
		{"upload oversized text graph", "POST", "/v1/graphs", "text/plain", []byte("nodes 3000000\nattrs 0\n"), http.StatusBadRequest},
		{"upload text graph past the ID space", "POST", "/v1/graphs", "text/plain", []byte("nodes 4294967296\nattrs 0\n"), http.StatusBadRequest},
		{"upload overwide graph", "POST", "/v1/graphs", "application/json", widePayload, http.StatusBadRequest},
		{"get unknown graph", "GET", "/v1/graphs/deadbeef", "", nil, http.StatusNotFound},
		{"get graph bad format", "GET", "/v1/graphs/" + graphID + "?format=yaml", "", nil, http.StatusBadRequest},
		{"get graph chunked format", "GET", "/v1/graphs/" + graphID + "?format=chunked", "", nil, http.StatusBadRequest},
		{"delete unknown graph", "DELETE", "/v1/graphs/deadbeef", "", nil, http.StatusNotFound},
		{"fit unknown graph id", "POST", "/v1/fit", "application/json",
			[]byte(`{"graph_id":"deadbeef"}`), http.StatusNotFound},
		{"fit two inputs", "POST", "/v1/fit", "application/json",
			[]byte(`{"graph_id":"` + graphID + `","dataset":{"name":"lastfm"}}`), http.StatusBadRequest},
		{"sample store with text format", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","store":true,"format":"text"}`), http.StatusBadRequest},
		{"sample store with binary format", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","store":true,"format":"binary"}`), http.StatusBadRequest},
		{"sample chunked format", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","format":"chunked"}`), http.StatusBadRequest},
		{"sample count without async", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","count":2}`), http.StatusBadRequest},
		{"sample async with binary format", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"format":"binary"}`), http.StatusBadRequest},
		{"sample parallelism over bound", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","parallelism":257}`), http.StatusBadRequest},
		{"sample iterations over bound", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","iterations":33}`), http.StatusBadRequest},
		{"sample negative iterations", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","iterations":-1}`), http.StatusBadRequest},
		{"job malformed body", "POST", "/v1/sample", "application/json", []byte("{not json"), http.StatusBadRequest},
		{"job unknown model", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"deadbeef","async":true,"count":1}`), http.StatusNotFound},
		{"job count over cap", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":1000}`), http.StatusBadRequest},
		{"job negative count", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":-1}`), http.StatusBadRequest},
		{"job negative parallelism", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":1,"parallelism":-1}`), http.StatusBadRequest},
		{"job parallelism over bound", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":1,"parallelism":257}`), http.StatusBadRequest},
		{"job iterations over bound", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":1,"iterations":33}`), http.StatusBadRequest},
		{"job seed range crossing zero", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":8,"seed":-3}`), http.StatusBadRequest},
		{"job bad model kind", "POST", "/v1/sample", "application/json",
			[]byte(`{"id":"` + modelID + `","async":true,"count":1,"model":"gnp"}`), http.StatusBadRequest},
		{"jobs submit route gone", "POST", "/v1/jobs", "application/json",
			[]byte(`{"model_id":"` + modelID + `","count":1}`), http.StatusMethodNotAllowed},
		{"get unknown job", "GET", "/v1/jobs/job-999999", "", nil, http.StatusNotFound},
		{"delete unknown job", "DELETE", "/v1/jobs/job-999999", "", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			switch tc.method {
			case "POST":
				resp = postBody(t, ts.URL+tc.path, tc.contentType, tc.body)
			case "GET":
				resp, err = http.Get(ts.URL + tc.path)
			case "DELETE":
				resp = doDelete(t, ts.URL+tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, b)
			}
			// Handler error bodies are uniform JSON; the mux answers a
			// method the route does not serve in plain text.
			if resp.StatusCode >= 400 && resp.StatusCode != http.StatusMethodNotAllowed {
				var e apiError
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
					t.Fatalf("error body is not apiError JSON: %v", err)
				}
			}
		})
	}
}

// TestDatasetScaleValidationAligned pins the server to the same (0, 1] scale
// range the facade enforces.
func TestDatasetScaleValidationAligned(t *testing.T) {
	ts, _ := newV1TestServer(t)
	for _, scale := range []float64{1.5, 100} {
		resp := postJSON(t, ts.URL+"/v1/fit", map[string]any{
			"dataset": map[string]any{"name": "lastfm", "scale": scale},
		})
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("scale %v: status %d, want 400", scale, resp.StatusCode)
		}
		if !strings.Contains(string(b), "(0, 1]") {
			t.Fatalf("scale %v error does not state the valid range: %s", scale, b)
		}
	}
}

// TestHealthzCountsResources checks the extended healthz body.
func TestHealthzCountsResources(t *testing.T) {
	ts, _ := newV1TestServer(t)
	uploadBinary(t, ts, testUploadGraph(5))
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthzResponse
	decode(t, resp, &hr)
	if hr.Graphs != 1 {
		t.Fatalf("healthz graphs = %d, want 1", hr.Graphs)
	}
}

// TestServerCreatesDefaultStores checks that a Config without Graphs/Jobs
// still serves the full v1 surface (the compatibility path the pre-v1
// constructor callers take).
func TestServerCreatesDefaultStores(t *testing.T) {
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, Seed: 1})
	t.Cleanup(eng.Close)
	srv, err := New(Config{Registry: reg, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	id := uploadBinary(t, ts, testUploadGraph(6))
	resp, err := http.Get(ts.URL + "/v1/graphs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default store get: status %d", resp.StatusCode)
	}
}
