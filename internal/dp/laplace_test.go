package dp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewRand with equal seeds produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("NewRand with different seeds produced identical streams")
	}
}

func TestLaplaceMomentsMatchTheory(t *testing.T) {
	rng := NewRand(1)
	const (
		n     = 200000
		scale = 2.5
	)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace sample mean = %v, want ≈ 0", mean)
	}
	wantVar := 2 * scale * scale
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Fatalf("Laplace sample variance = %v, want ≈ %v", variance, wantVar)
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	rng := NewRand(2)
	pos := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if Laplace(rng, 1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("positive fraction = %v, want ≈ 0.5", frac)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Laplace(scale=%v) did not panic", scale)
				}
			}()
			Laplace(NewRand(1), scale)
		}()
	}
}

func TestLaplaceMechanismCentersOnValue(t *testing.T) {
	rng := NewRand(3)
	const trials = 50000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += LaplaceMechanism(rng, 10, 1, 1)
	}
	mean := sum / trials
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("LaplaceMechanism mean = %v, want ≈ 10", mean)
	}
}

func TestLaplaceMechanismNoiseScalesWithSensitivityOverEpsilon(t *testing.T) {
	// Larger epsilon should concentrate the output more tightly around the
	// true value; verify via mean absolute deviation (= scale for Laplace).
	mad := func(eps float64) float64 {
		rng := NewRand(4)
		const trials = 50000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += math.Abs(LaplaceMechanism(rng, 0, 2, eps))
		}
		return sum / trials
	}
	loose := mad(0.1) // scale 20
	tight := mad(1.0) // scale 2
	if tight >= loose {
		t.Fatalf("noise did not shrink with larger epsilon: mad(1)=%v, mad(0.1)=%v", tight, loose)
	}
	if math.Abs(tight-2) > 0.2 {
		t.Fatalf("mad at eps=1, sens=2 is %v, want ≈ 2", tight)
	}
	if math.Abs(loose-20) > 2 {
		t.Fatalf("mad at eps=0.1, sens=2 is %v, want ≈ 20", loose)
	}
}

func TestLaplaceMechanismPanics(t *testing.T) {
	rng := NewRand(1)
	mustPanic(t, func() { LaplaceMechanism(rng, 0, 1, 0) }, "zero epsilon")
	mustPanic(t, func() { LaplaceMechanism(rng, 0, 0, 1) }, "zero sensitivity")
}

func TestLaplaceVector(t *testing.T) {
	rng := NewRand(5)
	in := []float64{1, 2, 3, 4}
	out := LaplaceVector(rng, in, 1, 10)
	if len(out) != len(in) {
		t.Fatalf("LaplaceVector length = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] == in[i] {
			t.Fatalf("coordinate %d unchanged; noise not applied", i)
		}
		if in[i] != float64(i+1) {
			t.Fatal("LaplaceVector modified its input")
		}
	}
	mustPanic(t, func() { LaplaceVector(rng, in, 0, 1) }, "zero sensitivity")
	mustPanic(t, func() { LaplaceVector(rng, in, 1, 0) }, "zero epsilon")
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-3, 0, 10, 0},
		{42, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Fatalf("Clamp(%v, %v, %v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
	mustPanic(t, func() { Clamp(1, 5, 0) }, "inverted bounds")
}

func TestNormalizeToDistribution(t *testing.T) {
	out := NormalizeToDistribution([]float64{1, 3})
	if math.Abs(out[0]-0.25) > 1e-12 || math.Abs(out[1]-0.75) > 1e-12 {
		t.Fatalf("NormalizeToDistribution = %v, want [0.25 0.75]", out)
	}
	// All-zero input falls back to uniform.
	out = NormalizeToDistribution([]float64{0, 0, 0, 0})
	for _, v := range out {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("all-zero input should yield uniform, got %v", out)
		}
	}
	if got := NormalizeToDistribution(nil); len(got) != 0 {
		t.Fatalf("empty input should yield empty output, got %v", got)
	}
	mustPanic(t, func() { NormalizeToDistribution([]float64{1, -1}) }, "negative weight")
}

// Property: NormalizeToDistribution always returns a probability vector.
func TestNormalizeToDistributionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]float64, len(raw))
		for i, v := range raw {
			in[i] = float64(v)
		}
		out := NormalizeToDistribution(in)
		sum := 0.0
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mustPanic asserts that fn panics.
func mustPanic(t *testing.T, fn func(), label string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}
