package datasets

import (
	"math"
	"testing"

	"agmdp/internal/attrs"
	"agmdp/internal/dp"
)

func TestAllProfilesMatchTable6Targets(t *testing.T) {
	want := map[string]struct {
		nodes, edges, dmax int
	}{
		"lastfm":   {1843, 12668, 119},
		"petster":  {1788, 12476, 272},
		"epinions": {26427, 104075, 625},
		"pokec":    {592627, 3725424, 1274},
	}
	profiles := AllProfiles()
	if len(profiles) != 4 {
		t.Fatalf("AllProfiles returned %d profiles, want 4", len(profiles))
	}
	for _, p := range profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Fatalf("unexpected profile %q", p.Name)
		}
		if p.Nodes != w.nodes || p.Edges != w.edges || p.MaxDegree != w.dmax {
			t.Fatalf("%s profile = (%d, %d, %d), want (%d, %d, %d)",
				p.Name, p.Nodes, p.Edges, p.MaxDegree, w.nodes, w.edges, w.dmax)
		}
		if p.NumAttributes() != 2 {
			t.Fatalf("%s should carry 2 attributes (paper uses w=2)", p.Name)
		}
		if len(p.Epsilons) != 4 {
			t.Fatalf("%s should list 4 privacy budgets", p.Name)
		}
		if p.DefaultScale <= 0 || p.DefaultScale > 1 {
			t.Fatalf("%s default scale %v outside (0, 1]", p.Name, p.DefaultScale)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("Epinions")
	if err != nil {
		t.Fatalf("ByName(Epinions): %v", err)
	}
	if p.Name != "epinions" {
		t.Fatalf("ByName returned %q", p.Name)
	}
	if _, err := ByName("facebook"); err == nil {
		t.Fatal("unknown dataset name should error")
	}
}

func TestAverageDegree(t *testing.T) {
	p, _ := ByName("lastfm")
	want := 2 * 12668.0 / 1843.0
	if math.Abs(p.AverageDegree()-want) > 1e-9 {
		t.Fatalf("AverageDegree = %v, want %v", p.AverageDegree(), want)
	}
	if (Profile{}).AverageDegree() != 0 {
		t.Fatal("zero profile should have zero average degree")
	}
}

func TestScaled(t *testing.T) {
	p, _ := ByName("pokec")
	s := p.Scaled(0.05)
	if s.Nodes >= p.Nodes || s.Edges >= p.Edges {
		t.Fatalf("scaling did not shrink the profile: %+v", s)
	}
	if math.Abs(float64(s.Nodes)-0.05*float64(p.Nodes)) > 1 {
		t.Fatalf("scaled nodes = %d, want ≈ %v", s.Nodes, 0.05*float64(p.Nodes))
	}
	if s.MaxDegree >= s.Nodes {
		t.Fatalf("scaled max degree %d not below node count %d", s.MaxDegree, s.Nodes)
	}
	if p.Scaled(1).Nodes != p.Nodes {
		t.Fatal("Scaled(1) should be the identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive scale did not panic")
		}
	}()
	p.Scaled(0)
}

func TestDefaultScaled(t *testing.T) {
	p, _ := ByName("lastfm")
	if p.Scaled(p.DefaultScale).Nodes != p.Nodes {
		t.Fatal("lastfm default scale should be full size")
	}
	pk, _ := ByName("pokec")
	if pk.Scaled(pk.DefaultScale).Nodes >= pk.Nodes {
		t.Fatal("pokec default scale should shrink the dataset")
	}
}

func TestGenerateMatchesProfileShape(t *testing.T) {
	p, _ := ByName("lastfm")
	p = p.Scaled(0.5)
	g := Generate(dp.NewRand(1), p)

	if g.NumNodes() != p.Nodes {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), p.Nodes)
	}
	if g.NumAttributes() != 2 {
		t.Fatalf("attributes = %d, want 2", g.NumAttributes())
	}
	// Edge count within 10% of the target.
	if math.Abs(float64(g.NumEdges()-p.Edges))/float64(p.Edges) > 0.10 {
		t.Fatalf("edges = %d, want ≈ %d", g.NumEdges(), p.Edges)
	}
	// Degrees respect the cap.
	if g.MaxDegree() > p.MaxDegree {
		t.Fatalf("max degree %d exceeds cap %d", g.MaxDegree(), p.MaxDegree)
	}
	// Social-graph-like clustering and triangles must be present.
	if g.Triangles() < int64(g.NumEdges()/10) {
		t.Fatalf("only %d triangles for %d edges; closure phase ineffective", g.Triangles(), g.NumEdges())
	}
	if g.AverageLocalClustering() < 0.03 {
		t.Fatalf("average local clustering %v too small", g.AverageLocalClustering())
	}
}

func TestGenerateHeavyTailedDegrees(t *testing.T) {
	p, _ := ByName("petster")
	p = p.Scaled(0.5)
	g := Generate(dp.NewRand(2), p)
	hist := g.DegreeHistogram()
	low := hist[1] + hist[2] + hist[3]
	if low < g.NumNodes()/4 {
		t.Fatalf("only %d low-degree nodes out of %d; degree distribution not heavy tailed", low, g.NumNodes())
	}
	if g.MaxDegree() < int(3*p.AverageDegree()) {
		t.Fatalf("max degree %d too small for a heavy-tailed graph (avg %v)", g.MaxDegree(), p.AverageDegree())
	}
}

func TestGenerateExhibitsHomophily(t *testing.T) {
	p, _ := ByName("lastfm")
	p = p.Scaled(0.5)
	g := Generate(dp.NewRand(3), p)

	// Compare the fraction of same-configuration edges against the fraction
	// expected if edges ignored attributes (the sum over configs of the
	// squared node fraction).
	thetaX := attrs.TrueThetaX(g)
	expectSame := 0.0
	for _, q := range thetaX {
		expectSame += q * q
	}
	same := 0
	g.ForEachEdge(func(u, v int) bool {
		if attrs.NodeConfig(g.Attr(u), 2) == attrs.NodeConfig(g.Attr(v), 2) {
			same++
		}
		return true
	})
	got := float64(same) / float64(g.NumEdges())
	if got <= expectSame*1.15 {
		t.Fatalf("same-config edge fraction %v not clearly above the no-homophily expectation %v", got, expectSame)
	}
}

func TestGenerateAttributeMarginals(t *testing.T) {
	p, _ := ByName("pokec")
	p = p.Scaled(0.02)
	g := Generate(dp.NewRand(4), p)
	for j, want := range p.AttrProbs {
		ones := 0
		for i := 0; i < g.NumNodes(); i++ {
			if g.Attr(i).Bit(j) == 1 {
				ones++
			}
		}
		got := float64(ones) / float64(g.NumNodes())
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("attribute %d marginal %v, want ≈ %v", j, got, want)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	p, _ := ByName("petster")
	p = p.Scaled(0.2)
	a := Generate(dp.NewRand(7), p)
	b := Generate(dp.NewRand(7), p)
	if !a.Equal(b) {
		t.Fatal("generation is not deterministic for a fixed seed")
	}
	c := Generate(dp.NewRand(8), p)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateTinyProfileDoesNotPanic(t *testing.T) {
	p := Profile{Name: "tiny", Nodes: 1, Edges: 0, MaxDegree: 1, AttrProbs: []float64{0.5}}
	g := Generate(dp.NewRand(1), p)
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("tiny profile generated %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}
}
