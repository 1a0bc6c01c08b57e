package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
	return goldenFit(t, nil)
}

// goldenFit fits model (nil selects TriCycLe) under ε = 1 to goldenModel's
// input at goldenModel's seeds.
func goldenFit(t *testing.T, model structural.Model) *FittedModel {
	t.Helper()
	p, err := datasets.ByName("lastfm")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.Generate(dp.NewRand(1), p.Scaled(0.5))
	if g.NumEdges() < parallel.MinShardEdges {
		t.Fatalf("golden input has %d edges, want at least %d", g.NumEdges(), parallel.MinShardEdges)
	}
	m, err := FitDP(context.Background(), dp.NewRand(2), g, Config{Epsilon: 1, Model: model})
	if err != nil {
		t.Fatalf("FitDP: %v", err)
	}
	return m
}

// earlyStopModels returns two models whose refinement stops early on
// sup R = 0 (Θ̃F is zero everywhere, so no configuration the graph shows
// keeps any acceptance). In the first, the unfiltered graph already shows
// every configuration, so round one stops and no table is produced. In the
// second, one attribute is rare: round one sees no edge inside the rare
// class and accepts only that pair, and round two sees one and stops.
func earlyStopModels(t *testing.T) (firstRound, secondRound *FittedModel) {
	t.Helper()
	firstRound = goldenModel(t)
	firstRound.ThetaF = make([]float64, len(firstRound.ThetaF))
	secondRound = goldenModel(t)
	secondRound.W = 1
	secondRound.ThetaX = []float64{0.994, 0.006}
	secondRound.ThetaF = make([]float64, 3)
	return firstRound, secondRound
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

// TestGoldenAcceptanceTables pins the sha256 of the little-endian float64
// bits of FitAcceptanceTable's tables. A table is fitted by sampling, so a
// change to a structural generator's rng trace moves it, and with it every
// persisted table of the current version. Two rows stop their refinement
// early: with no table (all ones) and with the first round's table.
func TestGoldenAcceptanceTables(t *testing.T) {
	firstRound, secondRound := earlyStopModels(t)
	cases := []struct {
		name  string
		model *FittedModel
		want  string
	}{
		{"TriCycLe", goldenModel(t), "e066630b7c5f577101b1af36deb0abd9a62d373542013e1e255ec82b4d146493"},
		{"FCL", goldenFit(t, structural.FCL{}), "7c5cf3985e751d91f76ccab3f44087353eee983913053e5239f8860fc9896667"},
		{"stop-round-1", firstRound, "ad8a323c573d41bd5b11d62fdb11cbb2fd3ca333ed0c981842282af0b080ef07"},
		{"stop-round-2", secondRound, "04ae04134c8318578c932394683055fea108f3f586ff5b055613752c5f03e6f5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			table, err := FitAcceptanceTable(c.model, SampleOptions{})
			if err != nil {
				t.Fatalf("FitAcceptanceTable: %v", err)
			}
			var bits []byte
			for _, p := range table {
				bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(p))
			}
			if sum := sha256.Sum256(bits); hex.EncodeToString(sum[:]) != c.want {
				t.Fatalf("table sha256 = %x, want %s (table %v)", sum, c.want, table)
			}
		})
	}
}

// TestGoldenEarlyStopSampleBytes pins the sha256 of samples whose
// refinement stops early, so the sample is the graph the stopping round
// already drew: the unfiltered one, or the first round's filtered one.
func TestGoldenEarlyStopSampleBytes(t *testing.T) {
	firstRound, secondRound := earlyStopModels(t)
	cases := []struct {
		name  string
		model *FittedModel
		want  string
	}{
		{"stop-round-1", firstRound, "25036eb8fb2f2fb91398481c5cd7d78b0643c344ac275a97026f2f15db54a0e1"},
		{"stop-round-2", secondRound, "3773b7c59236d0bf6df840d71b1c7f256e781c69491e6264650a10d2ff381847"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := SampleSource(dp.NewRand(6), c.model, SampleOptions{Model: structural.TriCycLe{Parallelism: 1}})
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
