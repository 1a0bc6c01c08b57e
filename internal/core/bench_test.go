package core

import (
	"context"
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/structural"
)

// BenchmarkFitAcceptanceTable times acceptance-table fits of FCL models
// DP-fitted at ε = 1 to a pokec scale-0.01 stand-in (5.9k nodes, 37k edges),
// the model shape the serving workloads fit and sample. A table's cost
// depends on its model's noise draw, so four fits at different seeds are
// taken in turn.
func BenchmarkFitAcceptanceTable(b *testing.B) {
	p, err := datasets.ByName("pokec")
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.Generate(dp.NewRand(1), p.Scaled(0.01))
	models := make([]*FittedModel, 4)
	for i := range models {
		if models[i], err = FitDP(context.Background(), dp.NewRand(int64(i+1)), g, Config{Epsilon: 1, Model: structural.FCL{}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitAcceptanceTable(models[i%len(models)], SampleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
