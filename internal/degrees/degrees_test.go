package degrees

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

func TestIsotonicAlreadySortedIsIdentity(t *testing.T) {
	in := []float64{1, 2, 2, 3, 10}
	out := Isotonic(in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("Isotonic changed an already sorted input: %v -> %v", in, out)
		}
	}
}

func TestIsotonicPoolsViolations(t *testing.T) {
	// Classic PAVA example: a single inversion is pooled to the block mean.
	out := Isotonic([]float64{1, 3, 2, 4})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("Isotonic = %v, want %v", out, want)
		}
	}
}

func TestIsotonicDecreasingInputPoolsToMean(t *testing.T) {
	out := Isotonic([]float64{5, 4, 3, 2, 1})
	for _, v := range out {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("fully decreasing input should pool to the global mean 3, got %v", out)
		}
	}
}

func TestIsotonicEmptyAndSingle(t *testing.T) {
	if out := Isotonic(nil); len(out) != 0 {
		t.Fatalf("Isotonic(nil) = %v", out)
	}
	out := Isotonic([]float64{7})
	if len(out) != 1 || out[0] != 7 {
		t.Fatalf("Isotonic single = %v", out)
	}
}

func TestIsotonicDoesNotModifyInput(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = Isotonic(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Isotonic modified its input: %v", in)
	}
}

// isMonotone reports whether the sequence is non-decreasing.
func isMonotone(seq []float64) bool {
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1]-1e-9 {
			return false
		}
	}
	return true
}

// Property: the PAVA output is always non-decreasing and preserves the sum of
// the input (the L2 projection onto the monotone cone preserves the mean).
func TestIsotonicMonotoneAndSumPreservingProperty(t *testing.T) {
	f := func(raw []int8) bool {
		in := make([]float64, len(raw))
		var sumIn float64
		for i, v := range raw {
			in[i] = float64(v)
			sumIn += float64(v)
		}
		out := Isotonic(in)
		if !isMonotone(out) {
			return false
		}
		var sumOut float64
		for _, v := range out {
			sumOut += v
		}
		return math.Abs(sumIn-sumOut) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PAVA is the L2-optimal monotone fit, so its error never exceeds
// the error of the best constant fit (the mean), which is a feasible monotone
// sequence.
func TestIsotonicNotWorseThanConstantFitProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]float64, len(raw))
		var mean float64
		for i, v := range raw {
			in[i] = float64(v)
			mean += float64(v)
		}
		mean /= float64(len(raw))
		out := Isotonic(in)
		var errPava, errConst float64
		for i := range in {
			errPava += (out[i] - in[i]) * (out[i] - in[i])
			errConst += (mean - in[i]) * (mean - in[i])
		}
		return errPava <= errConst+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for i := 1; i < n; i++ {
		b.AddEdge(0, i)
	}
	return b.Finalize()
}

func TestPrivateSequenceShapeAndRange(t *testing.T) {
	g := starGraph(50)
	rng := dp.NewRand(1)
	seq := PrivateSequence(rng, g, 1.0)
	if len(seq) != g.NumNodes() {
		t.Fatalf("sequence length = %d, want %d", len(seq), g.NumNodes())
	}
	if !sort.IntsAreSorted(seq) {
		t.Fatalf("private sequence is not sorted: %v", seq)
	}
	for _, d := range seq {
		if d < 0 || d > g.NumNodes()-1 {
			t.Fatalf("degree %d outside [0, n-1]", d)
		}
	}
}

func TestPrivateSequenceAccuracyImprovesWithEpsilon(t *testing.T) {
	// Use a power-law-ish degree multiset and compare L1 error at two
	// epsilons, averaged over trials.
	degs := make([]int, 0, 300)
	for i := 0; i < 200; i++ {
		degs = append(degs, 1)
	}
	for i := 0; i < 80; i++ {
		degs = append(degs, 5)
	}
	for i := 0; i < 20; i++ {
		degs = append(degs, 30)
	}
	n := len(degs)
	sorted := make([]int, n)
	copy(sorted, degs)
	sort.Ints(sorted)

	avgErr := func(eps float64) float64 {
		var total float64
		const trials = 30
		for trial := 0; trial < trials; trial++ {
			rng := dp.NewRand(int64(trial) + 100)
			est := PrivateSequenceFromDegrees(rng, degs, n, eps, DefaultOptions())
			for i := range est {
				total += math.Abs(est[i] - float64(sorted[i]))
			}
		}
		return total / trials
	}
	if loose, tight := avgErr(0.05), avgErr(2.0); tight >= loose {
		t.Fatalf("error did not shrink with larger epsilon: eps=2 err=%v, eps=0.05 err=%v", tight, loose)
	}
}

func TestConstrainedInferenceReducesError(t *testing.T) {
	// On a long, flat degree sequence the isotonic step should cut the error
	// substantially relative to raw Laplace noise.
	degs := make([]int, 500)
	for i := range degs {
		degs[i] = 2
	}
	n := len(degs)
	errWith, errWithout := 0.0, 0.0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		rngA := dp.NewRand(int64(trial))
		rngB := dp.NewRand(int64(trial))
		with := PrivateSequenceFromDegrees(rngA, degs, n, 0.1, Options{ConstrainedInference: true, Round: false})
		without := PrivateSequenceFromDegrees(rngB, degs, n, 0.1, Options{ConstrainedInference: false, Round: false})
		for i := range degs {
			errWith += math.Abs(with[i] - 2)
			errWithout += math.Abs(without[i] - 2)
		}
	}
	if errWith >= errWithout*0.6 {
		t.Fatalf("constrained inference error %v not much smaller than naive %v", errWith, errWithout)
	}
}

func TestPrivateSequenceFromDegreesPanics(t *testing.T) {
	rng := dp.NewRand(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero epsilon did not panic")
			}
		}()
		PrivateSequenceFromDegrees(rng, []int{1, 2}, 2, 0, DefaultOptions())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("n < len(degs) did not panic")
			}
		}()
		PrivateSequenceFromDegrees(rng, []int{1, 2, 3}, 2, 1, DefaultOptions())
	}()
}

// Property: output of the default estimator is always a sorted sequence of
// integers in [0, n-1], for random degree multisets.
func TestPrivateSequenceValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		degs := make([]int, n)
		for i := range degs {
			degs[i] = rng.Intn(n)
		}
		est := PrivateSequenceFromDegrees(dp.NewRand(seed), degs, n, 0.5, DefaultOptions())
		prev := -1.0
		for _, v := range est {
			if v < 0 || v > float64(n-1) || v != math.Trunc(v) || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSequenceSensitivityExhaustive checks SequenceSensitivity on every
// neighbour pair on two to five nodes with one attribute: every graph, every
// attribute assignment, and every single-edge toggle and single-node
// attribute flip of it moves the sorted degree sequence by at most the L1
// sensitivity PrivateSequenceFromDegrees charges.
func TestSequenceSensitivityExhaustive(t *testing.T) {
	for n := 2; n <= 5; n++ {
		var pairs []graph.Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, graph.Edge{U: u, V: v})
			}
		}
		// seq[mask][attrs] is the sorted degree sequence of the graph on the
		// pairs in mask whose node i has attribute bit i of attrs.
		seq := make([][][]int, 1<<len(pairs))
		for mask := range seq {
			seq[mask] = make([][]int, 1<<n)
			for attrs := range seq[mask] {
				b := graph.NewBuilder(n, 1)
				for p, e := range pairs {
					if mask&(1<<p) != 0 {
						b.AddEdge(e.U, e.V)
					}
				}
				for i := 0; i < n; i++ {
					b.SetAttr(i, graph.AttrVector(attrs>>i&1))
				}
				degs := b.Finalize().Degrees()
				sort.Ints(degs)
				seq[mask][attrs] = degs
			}
		}
		l1 := func(a, b []int) float64 {
			d := 0
			for i := range a {
				d += max(a[i]-b[i], b[i]-a[i])
			}
			return float64(d)
		}
		for mask := range seq {
			for attrs := range seq[mask] {
				s := seq[mask][attrs]
				for p := range pairs {
					if d := l1(s, seq[mask^1<<p][attrs]); d > SequenceSensitivity {
						t.Fatalf("n=%d graph %b attrs %b: toggling %v moves the sorted degrees by %v > %v",
							n, mask, attrs, pairs[p], d, SequenceSensitivity)
					}
				}
				for i := 0; i < n; i++ {
					if d := l1(s, seq[mask][attrs^1<<i]); d > SequenceSensitivity {
						t.Fatalf("n=%d graph %b attrs %b: flipping node %d moves the sorted degrees by %v > %v",
							n, mask, attrs, i, d, SequenceSensitivity)
					}
				}
			}
		}
	}
}
