// Package attrs implements the attribute side of AGM-DP: the encodings f_w and
// F_w that map node attribute vectors and edges to configuration indices, and
// the differentially private estimators for the attribute distribution ΘX
// (Algorithm 5, LearnAttributesDP) and the attribute–edge correlations ΘF
// (Algorithm 4, LearnCorrelationsDP via edge truncation, plus the
// smooth-sensitivity, sample-and-aggregate and naive-Laplace alternatives of
// Appendix B).
package attrs

import (
	"fmt"
	"math/rand"

	"agmdp/internal/graph"
)

// MaxWidth is the largest attribute width the configuration encodings
// support: NumEdgeConfigs(w) must fit in an int, which bounds w well below
// graph.MaxAttributes.
const MaxWidth = 30

// NumNodeConfigs returns |Y_w| = 2^w, the number of distinct attribute
// configurations a node can take with w binary attributes.
func NumNodeConfigs(w int) int {
	if w < 0 || w > MaxWidth {
		panic(fmt.Sprintf("attrs: attribute width %d outside [0, %d]", w, MaxWidth))
	}
	return 1 << uint(w)
}

// NumEdgeConfigs returns |Y^F_w| = C(2^w + 1, 2) = 2^w·(2^w+1)/2, the number
// of distinct unordered pairs of node configurations an undirected edge can
// connect.
func NumEdgeConfigs(w int) int {
	k := NumNodeConfigs(w)
	return k * (k + 1) / 2
}

// NodeConfig implements f_w: it maps a node attribute vector to its
// configuration index in [0, 2^w).
func NodeConfig(a graph.AttrVector, w int) int {
	k := NumNodeConfigs(w)
	idx := int(a) & (k - 1)
	return idx
}

// EdgeConfig implements F_w: it maps the unordered pair of attribute vectors
// at the endpoints of an edge to an index in [0, NumEdgeConfigs(w)), ignoring
// edge direction. The triangular indexing scheme places pair {a, b} with
// a ≤ b at index b·(b+1)/2 + a.
func EdgeConfig(ai, aj graph.AttrVector, w int) int {
	return PairConfig(NodeConfig(ai, w), NodeConfig(aj, w))
}

// PairConfig maps the unordered pair of node configurations {a, b} to its
// edge-configuration index, b·(b+1)/2 + a for a ≤ b.
func PairConfig(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return b*(b+1)/2 + a
}

// ConfigToVector converts a node configuration index back into an attribute
// vector (the inverse of NodeConfig).
func ConfigToVector(idx, w int) graph.AttrVector {
	if idx < 0 || idx >= NumNodeConfigs(w) {
		panic(fmt.Sprintf("attrs: node configuration index %d out of range for w=%d", idx, w))
	}
	return graph.AttrVector(idx)
}

// SampleIndex draws an index from a discrete probability distribution. The
// distribution need not be perfectly normalised; sampling is proportional to
// the weights. It panics on an empty or all-zero distribution.
func SampleIndex(rng *rand.Rand, dist []float64) int {
	if len(dist) == 0 {
		panic("attrs: SampleIndex with empty distribution")
	}
	total := 0.0
	for _, p := range dist {
		if p < 0 {
			panic("attrs: SampleIndex with negative weight")
		}
		total += p
	}
	if total <= 0 {
		panic("attrs: SampleIndex with all-zero distribution")
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}
