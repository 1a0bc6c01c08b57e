package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/parallel"
	"agmdp/internal/structural"
)

// goldenModel fits TriCycLe under ε = 1 to a Last.fm scale-0.5 stand-in, the
// input shape the publish benchmark samples from. Its 6.3k edges sit above
// parallel.MinShardEdges, so a two-worker TriCycLe draws its Chung–Lu seed
// from two streams.
func goldenModel(t *testing.T) *FittedModel {
	t.Helper()
	p, err := datasets.ByName("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.Generate(dp.NewRand(1), p.Scaled(0.5))
	if g.NumEdges() < parallel.MinShardEdges {
		t.Fatalf("golden input has %d edges, want at least %d", g.NumEdges(), parallel.MinShardEdges)
	}
	m, err := FitDP(context.Background(), dp.NewRand(2), g, Config{Epsilon: 1})
	if err != nil {
		t.Fatalf("FitDP: %v", err)
	}
	return m
}

// TestGoldenModelID pins the content address of a DP fit at fixed seeds, so
// a change to any fitting stage's rng trace or arithmetic fails here.
func TestGoldenModelID(t *testing.T) {
	const want = "5b42fb87b86403ac2f96e35c768fb92b"
	id, err := ModelID(goldenModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if id != want {
		t.Fatalf("ModelID = %s, want %s", id, want)
	}
}

// TestGoldenSampleBytes pins the sha256 of the AGMDPCSR bytes SampleSource
// streams at fixed seeds. Every sample is a pure function of (model, seed,
// worker count), so a change that reorders or adds an rng draw anywhere in
// the sampling pipeline fails here even when the result is still a valid
// graph.
func TestGoldenSampleBytes(t *testing.T) {
	m := goldenModel(t)
	cases := []struct {
		name  string
		model structural.Model
		seed  int64
		want  string
	}{
		{"TriCycLe-1", structural.TriCycLe{Parallelism: 1}, 3, "20a7601d7a29a7189c170d01db54b0208fcdefbe5fd8e489f1004829f7aeee3d"},
		{"TriCycLe-2", structural.TriCycLe{Parallelism: 2}, 4, "fba9db69745b0337845647fd1c2a5a77ad7b3be1dfd2d7285f32a5630279f821"},
		{"FCL-1", structural.FCL{Parallelism: 1}, 5, "c4ad1c958e955c40bbfab9774857c1c70765d152032663b0d09347239da0012c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := SampleSource(dp.NewRand(c.seed), m, SampleOptions{Model: c.model})
			if err != nil {
				t.Fatalf("SampleSource: %v", err)
			}
			h := sha256.New()
			if err := graph.WriteBinaryTo(h, src); err != nil {
				t.Fatalf("WriteBinaryTo: %v", err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Fatalf("sample sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
