package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRelativeError(t *testing.T) {
	cases := []struct{ truth, est, want float64 }{
		{10, 12, 0.2},
		{10, 10, 0},
		{10, 8, 0.2},
		{-4, -5, 0.25},
		{0, 0, 0},
		{0, 3, 3},
	}
	for _, c := range cases {
		if got := RelativeError(c.truth, c.est); !approx(got, c.want, 1e-12) {
			t.Fatalf("RelativeError(%v, %v) = %v, want %v", c.truth, c.est, got, c.want)
		}
	}
}

func TestMeanAbsoluteError(t *testing.T) {
	if got := MeanAbsoluteError([]float64{1, 2, 3}, []float64{1, 4, 1}); !approx(got, 4.0/3, 1e-12) {
		t.Fatalf("MAE = %v, want 4/3", got)
	}
	mustPanic(t, func() { MeanAbsoluteError([]float64{1}, []float64{1, 2}) }, "length mismatch")
	mustPanic(t, func() { MeanAbsoluteError(nil, nil) }, "empty")
}

func TestHellingerDistanceBasics(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := HellingerDistance(p, p); !approx(got, 0, 1e-12) {
		t.Fatalf("identical distributions: H = %v, want 0", got)
	}
	// Disjoint supports give the maximum distance 1.
	if got := HellingerDistance([]float64{1, 0}, []float64{0, 1}); !approx(got, 1, 1e-12) {
		t.Fatalf("disjoint distributions: H = %v, want 1", got)
	}
	// Known value: H({1,0},{0.5,0.5}) = sqrt(1 - 1/sqrt(2)).
	want := math.Sqrt(1 - 1/math.Sqrt2)
	if got := HellingerDistance([]float64{1, 0}, []float64{0.5, 0.5}); !approx(got, want, 1e-12) {
		t.Fatalf("H = %v, want %v", got, want)
	}
	mustPanic(t, func() { HellingerDistance([]float64{1}, []float64{0.5, 0.5}) }, "length mismatch")
	mustPanic(t, func() { HellingerDistance([]float64{-0.1, 1.1}, []float64{0.5, 0.5}) }, "negative probability")
}

func TestHellingerSymmetryProperty(t *testing.T) {
	f := func(rawA, rawB []uint8) bool {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		if n == 0 {
			return true
		}
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := 0; i < n; i++ {
			p[i] = float64(rawA[i]) + 1
			q[i] = float64(rawB[i]) + 1
			sp += p[i]
			sq += q[i]
		}
		for i := 0; i < n; i++ {
			p[i] /= sp
			q[i] /= sq
		}
		h1 := HellingerDistance(p, q)
		h2 := HellingerDistance(q, p)
		return approx(h1, h2, 1e-12) && h1 >= 0 && h1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeDistribution(t *testing.T) {
	dist := DegreeDistribution([]int{0, 1, 1, 3})
	want := []float64{0.25, 0.5, 0, 0.25}
	if len(dist) != len(want) {
		t.Fatalf("distribution length = %d, want %d", len(dist), len(want))
	}
	for i := range want {
		if !approx(dist[i], want[i], 1e-12) {
			t.Fatalf("distribution = %v, want %v", dist, want)
		}
	}
	if len(DegreeDistribution(nil)) != 1 {
		t.Fatal("empty degree multiset should yield a single-entry distribution")
	}
	mustPanic(t, func() { DegreeDistribution([]int{-1}) }, "negative degree")
}

func TestDegreeHellinger(t *testing.T) {
	a := []int{1, 1, 2, 2}
	if got := DegreeHellinger(a, a); !approx(got, 0, 1e-12) {
		t.Fatalf("identical sequences: H = %v, want 0", got)
	}
	// Different supports of different lengths must be handled by padding.
	b := []int{5, 5, 5, 5}
	if got := DegreeHellinger(a, b); !approx(got, 1, 1e-12) {
		t.Fatalf("disjoint degree supports: H = %v, want 1", got)
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	// Identical samples → 0.
	if got := KolmogorovSmirnov([]float64{1, 2, 3}, []float64{1, 2, 3}); !approx(got, 0, 1e-12) {
		t.Fatalf("identical samples KS = %v, want 0", got)
	}
	// Completely separated samples → 1.
	if got := KolmogorovSmirnov([]float64{1, 2}, []float64{10, 11}); !approx(got, 1, 1e-12) {
		t.Fatalf("separated samples KS = %v, want 1", got)
	}
	// Known value: {1,2,3,4} vs {3,4,5,6}: max gap is 0.5 at x ∈ [2,3).
	if got := KolmogorovSmirnov([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6}); !approx(got, 0.5, 1e-12) {
		t.Fatalf("KS = %v, want 0.5", got)
	}
	mustPanic(t, func() { KolmogorovSmirnov(nil, []float64{1}) }, "empty sample")
}

func TestDegreeKS(t *testing.T) {
	a := []int{1, 2, 3, 4}
	b := []int{1, 2, 3, 4}
	if got := DegreeKS(a, b); !approx(got, 0, 1e-12) {
		t.Fatalf("DegreeKS identical = %v, want 0", got)
	}
	if got := DegreeKS([]int{1, 1}, []int{9, 9}); !approx(got, 1, 1e-12) {
		t.Fatalf("DegreeKS separated = %v, want 1", got)
	}
}

// Property: KS lies in [0, 1] and is symmetric.
func TestKSRangeSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 1+rng.Intn(50))
		b := make([]float64, 1+rng.Intn(50))
		for i := range a {
			a[i] = float64(rng.Intn(20))
		}
		for i := range b {
			b[i] = float64(rng.Intn(20))
		}
		ks := KolmogorovSmirnov(a, b)
		return ks >= 0 && ks <= 1+1e-12 && approx(ks, KolmogorovSmirnov(b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCCDF(t *testing.T) {
	points := CCDF([]float64{1, 1, 2, 3})
	// Values 1, 2, 3 with CCDF fractions 0.5, 0.25, 0.
	if len(points) != 3 {
		t.Fatalf("CCDF has %d points, want 3", len(points))
	}
	wants := []CCDFPoint{{1, 0.5}, {2, 0.25}, {3, 0}}
	for i, w := range wants {
		if points[i].Value != w.Value || !approx(points[i].Fraction, w.Fraction, 1e-12) {
			t.Fatalf("CCDF[%d] = %+v, want %+v", i, points[i], w)
		}
	}
	if CCDF(nil) != nil {
		t.Fatal("CCDF(nil) should be nil")
	}
}

func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v % 16)
		}
		points := CCDF(samples)
		for i := 1; i < len(points); i++ {
			if points[i].Value <= points[i-1].Value {
				return false
			}
			if points[i].Fraction > points[i-1].Fraction+1e-12 {
				return false
			}
		}
		return len(points) > 0 && approx(points[len(points)-1].Fraction, 0, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Quantile(s, 0.5); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	if got := Quantile(s, 0); got != 1 {
		t.Fatalf("0-quantile = %v, want 1", got)
	}
	if got := Quantile(s, 1); got != 10 {
		t.Fatalf("1-quantile = %v, want 10", got)
	}
	mustPanic(t, func() { Quantile(nil, 0.5) }, "empty sample")
	mustPanic(t, func() { Quantile(s, 1.5) }, "q out of range")
}

func mustPanic(t *testing.T, fn func(), label string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}
