package structural

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"agmdp/internal/graph"
)

// TestGoldenUnfilteredBytes pins the sha256 of the AGMDPCSR bytes of
// unfiltered generations at fixed seeds: the Chung–Lu loop at one and two
// streams, and a two-stream TriCycLe. A nil filter is what Algorithm 3's
// round 0 and the ablations pass, so a change to the filtered seed must
// leave these bytes, and the rng trace behind them, as they are.
func TestGoldenUnfilteredBytes(t *testing.T) {
	degrees := parallelDegrees(3000)
	n := len(degrees)
	target := sumDegrees(degrees) / 2
	cases := []struct {
		name string
		gen  func() *graph.Graph
		want string
	}{
		{"GenerateCL-1", func() *graph.Graph {
			return GenerateCL(rand.New(rand.NewSource(1)), n, NewNodeSampler(degrees, nil), target, nil, 1)
		}, "29580095ef83a1f25a3cc14078432ca5f0d071654b86039793ae9598c33014b6"},
		{"GenerateCL-2", func() *graph.Graph {
			return GenerateCL(rand.New(rand.NewSource(1)), n, NewNodeSampler(degrees, nil), target, nil, 2)
		}, "ab540c81d103b5d7cf306e2e69bbf864286676c9ee02112d883bc642be713c89"},
		{"TriCycLe-2", func() *graph.Graph {
			params := Params{Degrees: degrees, Triangles: 2000}
			return TriCycLe{Parallelism: 2}.Generate(rand.New(rand.NewSource(1)), n, params, nil).Finalize()
		}, "ad22eb3081688b673f44b851fbefcc4f905ce42e815edce4f2f4de576a5009f8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			if err := graph.WriteBinaryTo(h, c.gen()); err != nil {
				t.Fatalf("WriteBinaryTo: %v", err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Fatalf("sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
