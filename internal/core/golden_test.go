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
		{"TriCycLe-1", structural.TriCycLe{Parallelism: 1}, 3, "c7c15d88b539f9c28813e154b4fa56544719c47c8c5a194ff52388c28477a27d"},
		{"TriCycLe-2", structural.TriCycLe{Parallelism: 2}, 4, "0034bcdb0ccea9722bdd4955afa07dfd3f170d69a714162fad32e052ddb35a62"},
		{"FCL-1", structural.FCL{Parallelism: 1}, 5, "6f579538f3e084c4f4e584a77db2bf3acd9d4ce28281a374761ab8a3bbfe551e"},
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
