package structural

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"agmdp/internal/dp"
	"agmdp/internal/graph"
)

// powerLawDegrees builds a degree sequence with a heavy tail (many degree-1 and
// degree-2 nodes, a few hubs), summing to an even number.
func powerLawDegrees(rng *rand.Rand, n, maxDeg int) []int {
	degs := make([]int, n)
	for i := range degs {
		// Pareto-ish: P(d) ∝ d^-2 over [1, maxDeg].
		u := rng.Float64()
		d := int(math.Ceil(1 / (1 - u*(1-1/float64(maxDeg)))))
		if d > maxDeg {
			d = maxDeg
		}
		if d > n-1 {
			d = n - 1
		}
		degs[i] = d
	}
	if sumDegrees(degs)%2 == 1 {
		degs[0]++
	}
	return degs
}

// clusteredTestGraph returns a graph with strong triangle structure built from
// overlapping cliques plus random edges, for exercising TCL/TriCycLe fitting.
func clusteredTestGraph(rng *rand.Rand, n, cliqueSize int, extraEdges int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for start := 0; start+cliqueSize <= n; start += cliqueSize - 1 {
		for i := start; i < start+cliqueSize; i++ {
			for j := i + 1; j < start+cliqueSize; j++ {
				b.AddEdge(i, j)
			}
		}
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Finalize()
}

// classFilter builds a filter over n nodes in k classes: node u is in class
// class(u), and pair gives the acceptance of each ordered class pair.
func classFilter(n, k int, class func(u int) int, pair func(a, b int) float64) *EdgeFilter {
	f := &EdgeFilter{Class: make([]int, n), Classes: k, Pair: pair}
	for u := range f.Class {
		f.Class[u] = class(u)
	}
	return f
}

// sameClass accepts an edge only inside a class.
func sameClass(a, b int) float64 {
	if a == b {
		return 1
	}
	return 0
}

func TestParamsValidate(t *testing.T) {
	ok := Params{Degrees: []int{1, 1}, Triangles: 0, Rho: 0.5}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Params
		n    int
	}{
		{"wrong length", Params{Degrees: []int{1}}, 2},
		{"negative degree", Params{Degrees: []int{-1, 1}}, 2},
		{"degree too large", Params{Degrees: []int{3, 1}}, 2},
		{"negative triangles", Params{Degrees: []int{1, 1}, Triangles: -1}, 2},
		{"rho out of range", Params{Degrees: []int{1, 1}, Rho: 1.5}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(tc.n); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
}

func TestGenerateCLMatchesTargetEdgeCount(t *testing.T) {
	rng := dp.NewRand(1)
	degs := powerLawDegrees(rng, 300, 40)
	target := sumDegrees(degs) / 2
	g := GenerateCL(dp.NewRand(2), 300, NewNodeSampler(degs, nil), target, nil, 1)
	if g.NumEdges() != target {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), target)
	}
	if g.NumNodes() != 300 {
		t.Fatalf("nodes = %d, want 300", g.NumNodes())
	}
}

func TestGenerateCLApproximatesDegreeSequence(t *testing.T) {
	// Average over several generations: expected degree of node i should be
	// close to its target degree for moderate-degree nodes.
	n := 400
	degs := make([]int, n)
	for i := range degs {
		degs[i] = 4
	}
	degs[0] = 60 // one hub
	if sumDegrees(degs)%2 == 1 {
		degs[1]++
	}
	sampler := NewNodeSampler(degs, nil)
	target := sumDegrees(degs) / 2
	var hubTotal, leafTotal float64
	const trials = 15
	for i := 0; i < trials; i++ {
		g := GenerateCL(dp.NewRand(int64(i)+10), n, sampler, target, nil, 1)
		hubTotal += float64(g.Degree(0))
		leafTotal += float64(g.Degree(100))
	}
	hubAvg, leafAvg := hubTotal/trials, leafTotal/trials
	if math.Abs(hubAvg-60)/60 > 0.25 {
		t.Fatalf("hub average degree %v, want ≈ 60", hubAvg)
	}
	if math.Abs(leafAvg-4) > 2 {
		t.Fatalf("leaf average degree %v, want ≈ 4", leafAvg)
	}
}

func TestGenerateCLZeroFilterProducesNoEdges(t *testing.T) {
	degs := []int{2, 2, 2, 2}
	zero := classFilter(4, 1, func(int) int { return 0 }, func(a, b int) float64 { return 0 })
	g := GenerateCL(dp.NewRand(1), 4, NewNodeSampler(degs, nil), 4, zero, 1)
	if g.NumEdges() != 0 {
		t.Fatalf("zero-acceptance filter produced %d edges", g.NumEdges())
	}
}

func TestGenerateCLFilterBiasesEdgeSelection(t *testing.T) {
	// Only allow edges inside {0..49} or inside {50..99}; the output must
	// contain no cross-group edge.
	n := 100
	degs := make([]int, n)
	for i := range degs {
		degs[i] = 4
	}
	filter := classFilter(n, 2, func(u int) int { return u / 50 }, sameClass)
	g := GenerateCL(dp.NewRand(5), n, NewNodeSampler(degs, nil), 200, filter, 1)
	bad := 0
	g.ForEachEdge(func(u, v int) bool {
		if (u < 50) != (v < 50) {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d cross-group edges slipped past the filter", bad)
	}
	if g.NumEdges() == 0 {
		t.Fatal("filtered generation produced no edges at all")
	}
}

func TestGenerateCLEmptySamplerAndZeroTarget(t *testing.T) {
	g := GenerateCL(dp.NewRand(1), 10, NewNodeSampler(make([]int, 10), nil), 5, nil, 1)
	if g.NumEdges() != 0 {
		t.Fatal("empty sampler should yield no edges")
	}
	g = GenerateCL(dp.NewRand(1), 10, NewNodeSampler([]int{1, 1, 0, 0, 0, 0, 0, 0, 0, 0}, nil), 0, nil, 1)
	if g.NumEdges() != 0 {
		t.Fatal("zero target should yield no edges")
	}
}

func TestFCLGenerateProducesTargetEdges(t *testing.T) {
	rng := dp.NewRand(3)
	n := 250
	degs := powerLawDegrees(rng, n, 30)
	g := FCL{}.Generate(dp.NewRand(4), n, Params{Degrees: degs}, nil).Finalize()
	if g.NumEdges() != sumDegrees(degs)/2 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), sumDegrees(degs)/2)
	}
	if (FCL{}).Name() != "FCL" {
		t.Fatal("FCL name mismatch")
	}
}

func TestFCLGeneratePanicsOnInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	FCL{}.Generate(dp.NewRand(1), 5, Params{Degrees: []int{1}}, nil)
}

func TestEdgeQueueOldestFirst(t *testing.T) {
	g := graph.NewBuilder(4, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	q := newEdgeQueue(g)
	e1, ok := q.popOldest(g)
	if !ok || e1.U != 0 || e1.V != 1 {
		t.Fatalf("first pop = %v, want {0 1}", e1)
	}
	// Stale entries (edges no longer in the graph) are skipped.
	g.RemoveEdge(1, 2)
	e2, ok := q.popOldest(g)
	if !ok || e2.U != 2 || e2.V != 3 {
		t.Fatalf("second pop = %v, want {2 3}", e2)
	}
	// Pushed edges come back after existing ones.
	g.AddEdge(0, 3)
	q.push(graph.Edge{U: 3, V: 0})
	e3, ok := q.popOldest(g)
	if !ok || e3.U != 0 || e3.V != 3 {
		t.Fatalf("third pop = %v, want {0 3}", e3)
	}
	if _, ok := q.popOldest(g); ok {
		t.Fatal("queue should be exhausted")
	}
}

func TestFitRhoRange(t *testing.T) {
	rng := dp.NewRand(5)
	clustered := clusteredTestGraph(rng, 120, 6, 40)
	rho := FitRho(clustered, 30)
	if rho < 0 || rho > 1 {
		t.Fatalf("FitRho = %v outside [0, 1]", rho)
	}
	if FitRho(graph.New(10, 0), 10) != 0 {
		t.Fatal("FitRho on an edgeless graph should be 0")
	}
}

func TestFitRhoHigherForClusteredGraphs(t *testing.T) {
	rng := dp.NewRand(6)
	clustered := clusteredTestGraph(rng, 150, 7, 30)
	// A Chung–Lu graph over equal weights is a structure-free baseline of the
	// same size.
	uniform := make([]int, 150)
	for i := range uniform {
		uniform[i] = 1
	}
	random := GenerateCL(dp.NewRand(7), 150, NewNodeSampler(uniform, nil), clustered.NumEdges(), nil, 1)
	rhoClustered := FitRho(clustered, 30)
	rhoRandom := FitRho(random, 30)
	if rhoClustered <= rhoRandom {
		t.Fatalf("FitRho(clustered)=%v not above FitRho(random)=%v", rhoClustered, rhoRandom)
	}
}

func TestTCLGenerateMatchesEdgeCountAndAddsClustering(t *testing.T) {
	rng := dp.NewRand(8)
	n := 300
	degs := powerLawDegrees(rng, n, 30)
	params := Params{Degrees: degs, Rho: 0.9}
	tcl := TCL{}.Generate(dp.NewRand(9), n, params, nil).Finalize()
	fcl := FCL{}.Generate(dp.NewRand(9), n, Params{Degrees: degs}, nil).Finalize()
	if tcl.NumEdges() != sumDegrees(degs)/2 {
		t.Fatalf("TCL edges = %d, want %d", tcl.NumEdges(), sumDegrees(degs)/2)
	}
	if tcl.Triangles() <= fcl.Triangles() {
		t.Fatalf("TCL with rho=0.9 produced %d triangles, not above FCL's %d",
			tcl.Triangles(), fcl.Triangles())
	}
	if (TCL{}).Name() != "TCL" {
		t.Fatal("TCL name mismatch")
	}
}

func TestTCLRhoZeroBehavesLikeCL(t *testing.T) {
	rng := dp.NewRand(10)
	n := 150
	degs := powerLawDegrees(rng, n, 20)
	g := TCL{}.Generate(dp.NewRand(11), n, Params{Degrees: degs, Rho: 0}, nil).Finalize()
	if g.NumEdges() != sumDegrees(degs)/2 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), sumDegrees(degs)/2)
	}
}

func TestTriCycLeReachesTriangleTarget(t *testing.T) {
	// Use a degree sequence with a realistic average degree (≈ 7, similar to
	// the paper's datasets) so that the friend-of-a-friend rewiring has enough
	// room to create triangles, and a triangle target of about 1.5 triangles
	// per edge, matching the triangle density of the paper's datasets.
	rng := dp.NewRand(12)
	n := 300
	degs := make([]int, n)
	for i := range degs {
		degs[i] = 4 + rng.Intn(7)
	}
	for i := 0; i < 10; i++ {
		degs[i] = 25 + rng.Intn(15)
	}
	if sumDegrees(degs)%2 == 1 {
		degs[0]++
	}
	target := int64(float64(sumDegrees(degs)/2) * 1.5)
	// A single generation lands anywhere in roughly [0.6, 0.75] of the target
	// depending on the seed, so assert on the mean over a few seeds rather
	// than on one lucky draw.
	var got int64
	const runs = 5
	for seed := int64(13); seed < 13+runs; seed++ {
		g := TriCycLe{}.Generate(dp.NewRand(seed), n, Params{Degrees: degs, Triangles: target}, nil).Finalize()
		got += g.Triangles()
	}
	got /= runs
	if got < target*6/10 {
		t.Fatalf("TriCycLe produced %d triangles on average, want ≥ 60%% of target %d", got, target)
	}
	if (TriCycLe{}).Name() != "TriCycLe" {
		t.Fatal("TriCycLe name mismatch")
	}
}

func TestTriCycLeProducesMoreTrianglesThanFCL(t *testing.T) {
	rng := dp.NewRand(14)
	n := 300
	degs := powerLawDegrees(rng, n, 30)
	fcl := FCL{}.Generate(dp.NewRand(15), n, Params{Degrees: degs}, nil).Finalize()
	target := fcl.Triangles()*4 + 200
	tri := TriCycLe{}.Generate(dp.NewRand(15), n, Params{Degrees: degs, Triangles: target}, nil).Finalize()
	if tri.Triangles() <= fcl.Triangles() {
		t.Fatalf("TriCycLe triangles %d not above FCL %d", tri.Triangles(), fcl.Triangles())
	}
}

func TestTriCycLePreservesEdgeCountApproximately(t *testing.T) {
	rng := dp.NewRand(16)
	n := 250
	degs := powerLawDegrees(rng, n, 25)
	m := sumDegrees(degs) / 2
	g := TriCycLe{}.Generate(dp.NewRand(17), n, Params{Degrees: degs, Triangles: 300}, nil).Finalize()
	if math.Abs(float64(g.NumEdges()-m))/float64(m) > 0.05 {
		t.Fatalf("TriCycLe edges = %d, want ≈ %d", g.NumEdges(), m)
	}
}

func TestTriCycLeDegreeDistributionRoughlyPreserved(t *testing.T) {
	rng := dp.NewRand(18)
	n := 300
	degs := powerLawDegrees(rng, n, 30)
	g := TriCycLe{}.Generate(dp.NewRand(19), n, Params{Degrees: degs, Triangles: 200}, nil).Finalize()
	wantSorted := append([]int(nil), degs...)
	sort.Ints(wantSorted)
	gotSorted := g.DegreeSequence()
	// Compare medians and 90th percentiles rather than element-wise: the
	// model only preserves the distribution in expectation.
	med := func(s []int) int { return s[len(s)/2] }
	p90 := func(s []int) int { return s[len(s)*9/10] }
	if diff := math.Abs(float64(med(wantSorted) - med(gotSorted))); diff > 2 {
		t.Fatalf("median degree drifted: want %d, got %d", med(wantSorted), med(gotSorted))
	}
	if p90(wantSorted) > 0 && math.Abs(float64(p90(wantSorted)-p90(gotSorted)))/float64(p90(wantSorted)) > 0.6 {
		t.Fatalf("90th percentile degree drifted: want %d, got %d", p90(wantSorted), p90(gotSorted))
	}
}

func TestTriCycLePostProcessingConnectsGraph(t *testing.T) {
	// Many degree-one nodes: without post-processing the CL construction
	// orphans a lot of them; with the extension the output should be (almost)
	// fully connected.
	rng := dp.NewRand(20)
	n := 400
	degs := make([]int, n)
	for i := range degs {
		if rng.Float64() < 0.5 {
			degs[i] = 1
		} else {
			degs[i] = 3 + rng.Intn(5)
		}
	}
	if sumDegrees(degs)%2 == 1 {
		degs[0]++
	}
	params := Params{Degrees: degs, Triangles: 100}
	with := TriCycLe{}.Generate(dp.NewRand(21), n, params, nil).Finalize()
	without := TriCycLe{DisablePostProcess: true}.Generate(dp.NewRand(21), n, params, nil).Finalize()
	orphansWith := len(with.OrphanedNodes())
	orphansWithout := len(without.OrphanedNodes())
	if orphansWith >= orphansWithout {
		t.Fatalf("post-processing did not reduce orphans: with=%d without=%d", orphansWith, orphansWithout)
	}
	if float64(orphansWith) > 0.05*float64(n) {
		t.Fatalf("post-processed graph still has %d orphans out of %d nodes", orphansWith, n)
	}
}

func TestTriCycLeZeroTriangleTargetStillGeneratesSeed(t *testing.T) {
	rng := dp.NewRand(22)
	n := 120
	degs := powerLawDegrees(rng, n, 15)
	g := TriCycLe{}.Generate(dp.NewRand(23), n, Params{Degrees: degs, Triangles: 0}, nil).Finalize()
	if g.NumEdges() == 0 {
		t.Fatal("seed graph missing for zero triangle target")
	}
}

func TestTriCycLeRespectsFilterGroups(t *testing.T) {
	rng := dp.NewRand(24)
	n := 200
	degs := powerLawDegrees(rng, n, 20)
	filter := classFilter(n, 2, func(u int) int { return u % 2 }, sameClass)
	g := TriCycLe{}.Generate(dp.NewRand(25), n, Params{Degrees: degs, Triangles: 100}, filter).Finalize()
	bad := 0
	g.ForEachEdge(func(u, v int) bool {
		if (u%2 == 0) != (v%2 == 0) {
			bad++
		}
		return true
	})
	// The main loop and the seed respect the filter; the connectivity
	// post-processing step intentionally ignores it, so allow a small number
	// of repair edges to cross groups.
	if float64(bad) > 0.1*float64(g.NumEdges()) {
		t.Fatalf("%d of %d edges violate the filter", bad, g.NumEdges())
	}
}

func TestPostProcessGraphRepairsDisconnectedGraph(t *testing.T) {
	// A graph with a 10-node cycle as the main component and 10 isolated
	// nodes. The desired degrees (3 for cycle nodes, 1 for the isolated ones)
	// imply 20 edges, which is enough to connect all 20 nodes.
	g := graph.NewBuilder(20, 0)
	for i := 0; i < 10; i++ {
		g.AddEdge(i, (i+1)%10)
	}
	desired := make([]int, 20)
	for i := range desired {
		if i < 10 {
			desired[i] = 3
		} else {
			desired[i] = 1
		}
	}
	sampler := NewNodeSampler(desired, func(i int) bool { return desired[i] == 1 })
	PostProcessGraph(dp.NewRand(1), g, sampler, desired, nil)
	if orphans := g.OrphanedNodes(); len(orphans) != 0 {
		t.Fatalf("post-processing left orphans: %v", orphans)
	}
	// Edge count should stay close to the desired total (sum/2 = 20).
	if math.Abs(float64(g.NumEdges()-20)) > 3 {
		t.Fatalf("edge count %d drifted far from desired 20", g.NumEdges())
	}
}

func TestPostProcessGraphNoopsOnConnectedGraph(t *testing.T) {
	g := graph.NewBuilder(5, 0)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	before := g.NumEdges()
	desired := []int{1, 2, 2, 2, 1}
	PostProcessGraph(dp.NewRand(1), g, NewNodeSampler(desired, nil), desired, nil)
	if g.NumEdges() != before {
		t.Fatalf("post-processing modified an already connected graph")
	}
}

func TestPostProcessGraphHandlesDegenerateInputs(t *testing.T) {
	// Mismatched desired length and empty graphs must not panic.
	g := graph.NewBuilder(3, 0)
	PostProcessGraph(dp.NewRand(1), g, NewNodeSampler([]int{1, 1}, nil), []int{1, 1}, nil)
	empty := graph.NewBuilder(0, 0)
	PostProcessGraph(dp.NewRand(1), empty, NewNodeSampler(nil, nil), nil, nil)
}
