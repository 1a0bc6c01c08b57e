package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/registry"
)

// newStreamTestServer builds a Server directly (not just its httptest
// wrapper) so tests can drive the handler with custom ResponseWriters.
func newStreamTestServer(t *testing.T) (*Server, *graphstore.Store) {
	t.Helper()
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1, Acceptance: reg})
	t.Cleanup(eng.Close)
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Registry:      reg,
		Engine:        eng,
		Graphs:        store,
		SampleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, store
}

func TestSampleFormatViaQuery(t *testing.T) {
	ts, _ := newV1TestServer(t)
	id := fitDataset(t, ts, 1.0)

	// Reference: the binary stream of the seeded sample.
	resp := postJSON(t, ts.URL+"/v1/sample", map[string]any{"id": id, "seed": 9, "iterations": 1, "format": "binary"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample binary: status %d", resp.StatusCode)
	}
	mono, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The format can also ride the query string (POST /v1/sample?format=...).
	resp = postJSON(t, ts.URL+"/v1/sample?format=binary", map[string]any{"id": id, "seed": 9, "iterations": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample ?format=binary: status %d", resp.StatusCode)
	}
	viaQuery, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mono, viaQuery) {
		t.Fatal("?format=binary differs from body-specified format")
	}
}

// failAfterWriter is a ResponseWriter whose body sink errors after limit
// bytes, standing in for a client that disconnected mid-stream.
type failAfterWriter struct {
	hdr     http.Header
	written int
	limit   int
}

func (w *failAfterWriter) Header() http.Header { return w.hdr }
func (w *failAfterWriter) WriteHeader(int)     {}
func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, errors.New("client went away")
	}
	w.written += len(p)
	return len(p), nil
}

// serveToDeadClient serves req through the mux with a sink that fails after
// 64 bytes and asserts the handler takes the abortOnStreamError path:
// panic(http.ErrAbortHandler), net/http's signal for "drop the connection,
// the body is truncated".
func serveToDeadClient(t *testing.T, srv *Server, req *http.Request) {
	t.Helper()
	w := &failAfterWriter{hdr: make(http.Header), limit: 64}
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
		}
		if ct := w.hdr.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("aborted a %q response, want the binary stream", ct)
		}
	}()
	// The mux is used without the instrumentation middleware here: the
	// middleware (like net/http itself) swallows ErrAbortHandler, and these
	// tests pin that the handler raises it at all.
	srv.mux.ServeHTTP(w, req)
	t.Fatal("streaming to a dead client did not abort the handler")
}

// TestBinaryStreamAbortsOnClientDisconnect drives the stored-graph binary
// download into a sink that fails mid-stream.
func TestBinaryStreamAbortsOnClientDisconnect(t *testing.T) {
	srv, store := newStreamTestServer(t)
	id, err := store.Put(testUploadGraph(8))
	if err != nil {
		t.Fatal(err)
	}
	serveToDeadClient(t, srv, httptest.NewRequest("GET", "/v1/graphs/"+id+"?format=binary", nil))
}

// TestSampleBinaryStreamAbortsOnClientDisconnect drives the streamed binary
// sample, encoded straight from the sampler's builder, into a sink that fails
// mid-stream.
func TestSampleBinaryStreamAbortsOnClientDisconnect(t *testing.T) {
	srv, _ := newStreamTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := fitDataset(t, ts, 1.0)
	body := fmt.Sprintf(`{"id":%q,"seed":9,"iterations":1,"format":"binary"}`, id)
	serveToDeadClient(t, srv, httptest.NewRequest("POST", "/v1/sample", strings.NewReader(body)))
}

// TestBinaryDisconnectLeavesServerHealthy closes a real connection
// mid-stream and verifies the server shrugs it off: the next request on a
// fresh connection completes and decodes cleanly.
func TestBinaryDisconnectLeavesServerHealthy(t *testing.T) {
	srv, store := newStreamTestServer(t)
	g := testUploadGraph(9)
	id, err := store.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/graphs/" + id + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	// Read the header's worth and walk away mid-body.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/graphs/" + id + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadBinary(resp.Body)
	resp.Body.Close()
	if err != nil || !g.Equal(back) {
		t.Fatalf("retry after disconnect does not round-trip: %v", err)
	}
}
