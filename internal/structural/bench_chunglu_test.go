package structural

import (
	"testing"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
)

// BenchmarkGenerateCLSequential times one sequential, class-pair-filtered
// Chung–Lu draw of a serving-sized target: the degrees of a pokec scale-0.01
// stand-in (5.9k nodes, 37k edges) under a four-class filter, the shape of
// one FCL generation in an acceptance-table fit.
func BenchmarkGenerateCLSequential(b *testing.B) {
	p, err := datasets.ByName("pokec")
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.Generate(dp.NewRand(1), p.Scaled(0.01))
	n := g.NumNodes()
	degrees := make([]int, n)
	for u := range degrees {
		degrees[u] = g.Degree(u)
	}
	// The nodes' two attributes give four classes; each ordered class pair
	// keeps between 0.1 and 1 of its proposals.
	filter := classFilter(n, 4, func(u int) int { return int(g.Attr(u)) }, func(a, b int) float64 {
		return 0.1 + 0.3*float64((a*b+a+b)%4)
	})
	sampler := NewNodeSampler(degrees, nil)
	target := sumDegrees(degrees) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateCL(dp.NewRand(int64(i)), n, sampler, target, filter, 1)
	}
}
