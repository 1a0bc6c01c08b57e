package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
	"agmdp/internal/structural"
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

// TestSampleSourceMatchesSample pins the streaming pipeline's core contract:
// SampleSource consumes the same rng trace as Sample and its row source
// materializes — and encodes — byte-identically to Sample's packed graph at
// the same seed, for every shipped structural model.
func TestSampleSourceMatchesSample(t *testing.T) {
	g := testInputGraph(30)
	for _, model := range []structural.Model{structural.TriCycLe{}, structural.FCL{}, structural.TCL{}} {
		m := Fit(g, model)
		for seed := int64(1); seed <= 3; seed++ {
			want, err := Sample(dp.NewRand(seed), m, SampleOptions{Iterations: 2})
			if err != nil {
				t.Fatalf("%s: Sample: %v", model.Name(), err)
			}
			src, err := SampleSource(dp.NewRand(seed), m, SampleOptions{Iterations: 2})
			if err != nil {
				t.Fatalf("%s: SampleSource: %v", model.Name(), err)
			}
			if !graph.Materialize(src).Equal(want) {
				t.Fatalf("%s seed %d: materialized source differs from Sample", model.Name(), seed)
			}
			var mono bytes.Buffer
			if err := graph.WriteBinaryTo(&mono, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mono.Bytes(), encodeSource(t, src)) {
				t.Fatalf("%s seed %d: streamed encoding differs from monolithic", model.Name(), seed)
			}
		}
	}
}

// TestSampleSourceStaysUnpacked asserts the perf point of the streaming path:
// for a streaming structural model the final round is never packed, so the
// returned source must be builder-backed, not a materialized graph.
func TestSampleSourceStaysUnpacked(t *testing.T) {
	g := testInputGraph(32)
	m := Fit(g, structural.FCL{})
	src, err := SampleSource(dp.NewRand(9), m, SampleOptions{Iterations: 1})
	if err != nil {
		t.Fatalf("SampleSource: %v", err)
	}
	if _, packed := src.(*graph.Graph); packed {
		t.Fatal("SampleSource returned a packed graph for a streaming model")
	}
}

// TestSampleSourceWithTableRefusesImpossibleTables checks that a table of
// the right length is still refused when an entry is not a probability in
// [0, 1], and that the entries at its ends are accepted.
func TestSampleSourceWithTableRefusesImpossibleTables(t *testing.T) {
	m := Fit(testInputGraph(32), structural.FCL{Parallelism: 1})
	table, err := FitAcceptanceTable(m, SampleOptions{})
	if err != nil {
		t.Fatalf("FitAcceptanceTable: %v", err)
	}
	for _, bad := range []float64{math.NaN(), -0.5, 1.5, math.Inf(1), math.Inf(-1)} {
		broken := slices.Clone(table)
		broken[len(broken)/2] = bad
		if _, err := SampleSourceWithTable(dp.NewRand(1), m, broken, SampleOptions{}); err == nil {
			t.Fatalf("SampleSourceWithTable accepted a table holding %v", bad)
		}
	}
	edges := slices.Clone(table)
	edges[0], edges[len(edges)-1] = 0, 1
	if _, err := SampleSourceWithTable(dp.NewRand(1), m, edges, SampleOptions{}); err != nil {
		t.Fatalf("SampleSourceWithTable refused entries 0 and 1: %v", err)
	}
}
