package engine

import (
	"bytes"
	"context"
	"testing"

	"agmdp/internal/graph"
	"agmdp/internal/registry"
)

// encodeSource serializes a row source through the streaming encoder.
func encodeSource(t *testing.T, src graph.RowSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinaryTo(&buf, src); err != nil {
		t.Fatalf("WriteBinaryTo: %v", err)
	}
	return buf.Bytes()
}

func TestSampleSourceSeededMatchesSampleSeeded(t *testing.T) {
	m := fixtureModel(t)
	e := New(Config{Workers: 2, Seed: 1})
	defer e.Close()

	g, seed1, err := e.SampleSeeded(context.Background(), Request{Model: m, Seed: 42, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, seed2, err := e.SampleSourceSeeded(context.Background(), Request{Model: m, Seed: 42, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seed1 != seed2 {
		t.Fatalf("resolved seeds differ: %d vs %d", seed1, seed2)
	}
	var mono bytes.Buffer
	if err := graph.WriteBinaryTo(&mono, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mono.Bytes(), encodeSource(t, src)) {
		t.Fatal("streamed sample encoding differs from the materialized sample")
	}
}

// TestSampleSourceSeededCachedPathMatches repeats the byte-identity check on
// the acceptance-cache fast path: a default-shaped request against a cached
// model must stream the same bytes the materialized entry point returns.
func TestSampleSourceSeededCachedPathMatches(t *testing.T) {
	m := fixtureModel(t)
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := reg.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, Seed: 1, Acceptance: reg})
	defer e.Close()

	req := Request{Model: m, CacheKey: id, Seed: 17}
	g, _, err := e.SampleSeeded(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := e.SampleSourceSeeded(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var mono bytes.Buffer
	if err := graph.WriteBinaryTo(&mono, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mono.Bytes(), encodeSource(t, src)) {
		t.Fatal("cached-path streamed encoding differs from the materialized sample")
	}
}
