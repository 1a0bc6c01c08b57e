package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"agmdp/internal/core"
	"agmdp/internal/datasets"
	"agmdp/internal/experiments"
	"agmdp/internal/graph"
	"agmdp/internal/obs"
	"agmdp/internal/stats"
)

// epsilon is the privacy budget of every fit the benchmark makes.
const epsilon = 1.0

// utilityOps is how many of a run's first outputs are scored for utility
// after the timed window.
const utilityOps = 4

// opSeed derives op i's seed from the run seed; op −1 is a warm-up.
func opSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// selfTarget is the benchmark process itself, for the library workloads: its
// metrics are the in-process obs registry the library layers record into.
func selfTarget() target {
	return target{
		pid: os.Getpid(),
		scrape: func() (promSnap, error) {
			var b strings.Builder
			if err := obs.Default().WritePrometheus(&b); err != nil {
				return nil, err
			}
			return parseProm(b.String())
		},
		mem: func() (memStats, error) {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return memStats{totalAlloc: m.TotalAlloc, numGC: uint64(m.NumGC)}, nil
		},
	}
}

// generate builds a dataset stand-in from the run seed.
func generate(seed int64, name string, scale float64) (*graph.Graph, error) {
	p, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return datasets.Generate(rand.New(rand.NewSource(seed)), p.Scaled(scale)), nil
}

// fitTraced runs core.FitDP under a core.fit span, with each stage the fit
// reports through Config.Observe as a child span.
func fitTraced(ctx context.Context, tr *tracer, op, parent int64, rng *rand.Rand, g *graph.Graph) (*core.FittedModel, error) {
	cfg := core.Config{Epsilon: epsilon}
	sp := tr.begin(op, parent, "core.fit", time.Now())
	if tr != nil {
		cfg.Observe = func(stage string, d time.Duration) {
			now := time.Now()
			tr.record(op, sp, "core.fit."+stage, now.Add(-d), now)
		}
	}
	m, err := core.FitDP(ctx, rng, g, cfg)
	tr.end(sp, time.Now())
	return m, err
}

// publishInputs is how many input graphs publish-tricycle cycles through.
// An op's cost depends on its input as much as on its DP noise draw, so a
// run over several inputs varies less from seed to seed than a run over one.
const publishInputs = 8

// publishRunner is publish-tricycle: the paper's pipeline end to end in one
// process — fit TriCycLe under ε-DP, sample with the default refinement
// rounds, and encode the sample as a binary CSR snapshot.
type publishRunner struct {
	o       options
	inputs  []*graph.Graph
	next    int
	buf     bytes.Buffer
	shas    []string
	kept    [][]byte
	utility map[string]float64
}

func newPublish(o options) runner { return &publishRunner{o: o} }

func (r *publishRunner) target() target { return selfTarget() }

func (r *publishRunner) setup(ctx context.Context) error {
	r.inputs = nil
	for k := range publishInputs {
		g, err := generate(r.o.seed*publishInputs+int64(k), "lastfm", r.o.sizes.publishScale)
		if err != nil {
			return err
		}
		r.inputs = append(r.inputs, g)
	}
	// The warm-up op publishes from an input and a noise draw that are the
	// same for every run seed. An op's cost varies fourfold with its noise
	// draw, and would otherwise make most of setup_s a seed's luck.
	warm, err := generate(warmSeed, "lastfm", r.o.sizes.publishScale)
	if err != nil {
		return err
	}
	_, _, err = r.publish(ctx, nil, -1, warm, warmSeed)
	return err
}

// warmSeed seeds publish-tricycle's warm-up op and its input.
const warmSeed = 0

// input is op i's input graph.
func (r *publishRunner) input(i int) *graph.Graph {
	return r.inputs[(i%publishInputs+publishInputs)%publishInputs]
}

func (r *publishRunner) teardown() {}

// op runs publish for op i.
func (r *publishRunner) op(ctx context.Context, tr *tracer, i int) ([32]byte, time.Time, error) {
	return r.publish(ctx, tr, int64(i), r.input(i), opSeed(r.o.seed, i))
}

// publish fits g, samples a synthetic graph from the fit and encodes it, all
// drawing from one rng seeded with seed. It returns the snapshot's sha256
// and the end time, and leaves the snapshot in r.buf.
func (r *publishRunner) publish(ctx context.Context, tr *tracer, id int64, g *graph.Graph, seed int64) ([32]byte, time.Time, error) {
	var sum [32]byte
	root := tr.begin(id, 0, rootSpan, time.Now())
	rng := rand.New(rand.NewSource(seed))
	m, err := fitTraced(ctx, tr, id, root, rng, g)
	if err != nil {
		return sum, time.Now(), err
	}
	sp := tr.begin(id, root, "core.sample", time.Now())
	src, err := core.SampleSource(rng, m, core.SampleOptions{})
	tr.end(sp, time.Now())
	if err != nil {
		return sum, time.Now(), err
	}
	sp = tr.begin(id, root, "graph.encode", time.Now())
	r.buf.Reset()
	h := sha256.New()
	err = graph.WriteBinaryTo(io.MultiWriter(&r.buf, h), src)
	end := time.Now()
	tr.end(sp, end)
	tr.end(root, end)
	h.Sum(sum[:0])
	return sum, end, err
}

func (r *publishRunner) window(ctx context.Context, p *phase) {
	for time.Now().Before(p.deadline) && ctx.Err() == nil {
		i := r.next
		r.next++
		start := time.Now()
		sum, end, err := r.op(ctx, p.tr, i)
		if err == nil {
			err = r.checkOutput(i, sum)
		}
		p.done(opResult{due: start, end: end, err: err})
	}
}

// checkOutput validates the snapshot in r.buf and keeps what the digest and
// the utility scoring need.
func (r *publishRunner) checkOutput(i int, sum [32]byte) error {
	g, err := graph.DecodeBinary(r.buf.Bytes())
	if err != nil {
		return fmt.Errorf("publish op %d: %w", i, err)
	}
	if want := r.input(i).NumNodes(); g.NumNodes() != want {
		return fmt.Errorf("publish op %d: %d nodes, want %d", i, g.NumNodes(), want)
	}
	if i < digestOps {
		r.shas = append(r.shas, hex.EncodeToString(sum[:]))
	}
	if i < utilityOps {
		r.kept = append(r.kept, bytes.Clone(r.buf.Bytes()))
	}
	return nil
}

func (r *publishRunner) finish(ctx context.Context, p *phase) string {
	// Same seed, same snapshot: op 0 again must reproduce its bytes.
	sum, _, err := r.op(ctx, nil, 0)
	if err == nil && len(r.shas) > 0 && hex.EncodeToString(sum[:]) != r.shas[0] {
		err = fmt.Errorf("publish op 0 is not reproducible: %x then %s", sum, r.shas[0])
	}
	p.check(err)

	var scores []experiments.GraphMetrics
	for i, data := range r.kept {
		g, err := graph.DecodeBinary(data)
		if err != nil {
			p.check(err)
			continue
		}
		scores = append(scores, experiments.CompareGraphs(r.input(i), g))
	}
	r.utility = map[string]float64{}
	for _, s := range scores {
		r.utility["utility_triangle_mre"] += s.MRETriangles / float64(len(scores))
		r.utility["utility_degree_ks"] += s.KSDegree / float64(len(scores))
		r.utility["utility_thetaf_hellinger"] += s.HellingerThetaF / float64(len(scores))
		r.utility["utility_edges_mre"] += s.MREEdges / float64(len(scores))
	}
	p.check(checkUtility(r.utility))
	return digest(r.shas)
}

func (r *publishRunner) timed(d promSnap) []serverLayer {
	return []serverLayer{
		{"structural.seed", "core.sample", seconds(d.sum("agmdp_structural_seed_duration_seconds_sum", nil))},
		{"structural.rewire", "core.sample", seconds(d.sum("agmdp_structural_rewire_duration_seconds_sum", nil))},
	}
}

func (r *publishRunner) report() map[string]float64 { return r.utility }

// utilityLimits are sanity limits on the utility of published graphs: far
// looser than the DP noise at ε = 1 ever pushes them, and far tighter than a
// broken sampler (empty or unstructured output) stays within.
var utilityLimits = map[string]float64{
	"utility_triangle_mre":     0.75,
	"utility_degree_ks":        0.35,
	"utility_thetaf_hellinger": 0.5,
	"utility_edges_mre":        0.35,
}

func checkUtility(u map[string]float64) error {
	var bad []string
	for name, v := range u {
		if limit, ok := utilityLimits[name]; ok && !(v <= limit) {
			bad = append(bad, fmt.Sprintf("%s %.4f > %.2f", name, v, limit))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("utility out of range: %s", strings.Join(bad, ", "))
	}
	return nil
}

// digest hashes a sequence of per-output identifiers into one.
func digest(ids []string) string {
	h := sha256.New()
	for _, id := range ids {
		io.WriteString(h, id)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// fitPokecRunner is fit-pokec: decode a large stored snapshot and fit
// TriCycLe parameters to it under ε-DP. Sampling never runs.
type fitPokecRunner struct {
	o        options
	snap     []byte
	n        int
	next     int
	ids      []string
	released []released
	utility  map[string]float64
}

// released keeps the parameters a fit released that the utility check scores.
type released struct {
	triangles int64
	degrees   []int
}

func newFitPokec(o options) runner { return &fitPokecRunner{o: o} }

func (r *fitPokecRunner) target() target { return selfTarget() }

func (r *fitPokecRunner) setup(ctx context.Context) error {
	g, err := generate(r.o.seed, "pokec", r.o.sizes.pokecScale)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := graph.WriteBinaryTo(&b, g); err != nil {
		return err
	}
	r.snap, r.n = b.Bytes(), g.NumNodes()
	_, _, err = r.op(ctx, nil, -1)
	return err
}

func (r *fitPokecRunner) teardown() {}

func (r *fitPokecRunner) op(ctx context.Context, tr *tracer, i int) (*core.FittedModel, time.Time, error) {
	id := int64(i)
	root := tr.begin(id, 0, rootSpan, time.Now())
	sp := tr.begin(id, root, "graph.decode", time.Now())
	g, err := graph.DecodeBinary(r.snap)
	tr.end(sp, time.Now())
	if err != nil {
		return nil, time.Now(), err
	}
	m, err := fitTraced(ctx, tr, id, root, rand.New(rand.NewSource(opSeed(r.o.seed, i))), g)
	end := time.Now()
	tr.end(root, end)
	return m, end, err
}

func (r *fitPokecRunner) window(ctx context.Context, p *phase) {
	for time.Now().Before(p.deadline) && ctx.Err() == nil {
		i := r.next
		r.next++
		start := time.Now()
		m, end, err := r.op(ctx, p.tr, i)
		if err == nil {
			err = r.checkModel(i, m)
		}
		p.done(opResult{due: start, end: end, err: err})
	}
}

func (r *fitPokecRunner) checkModel(i int, m *core.FittedModel) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("fit op %d: %w", i, err)
	}
	if m.N != r.n {
		return fmt.Errorf("fit op %d: model has %d nodes, want %d", i, m.N, r.n)
	}
	if i < digestOps {
		id, err := core.ModelID(m)
		if err != nil {
			return fmt.Errorf("fit op %d: %w", i, err)
		}
		r.ids = append(r.ids, id)
	}
	if i < utilityOps {
		r.released = append(r.released, released{m.Structural.Triangles, m.Structural.Degrees})
	}
	return nil
}

func (r *fitPokecRunner) finish(ctx context.Context, p *phase) string {
	m, _, err := r.op(ctx, nil, 0)
	if err == nil && len(r.ids) > 0 {
		var id string
		if id, err = core.ModelID(m); err == nil && id != r.ids[0] {
			err = fmt.Errorf("fit op 0 is not reproducible: model %s then %s", id, r.ids[0])
		}
	}
	p.check(err)

	g, err := graph.DecodeBinary(r.snap)
	if err != nil {
		p.check(err)
		return digest(r.ids)
	}
	truth, degs := float64(g.Triangles()), g.DegreeSequence()
	r.utility = map[string]float64{}
	for _, rel := range r.released {
		k := float64(len(r.released))
		r.utility["utility_triangle_mre"] += stats.RelativeError(truth, float64(rel.triangles)) / k
		r.utility["utility_degree_ks"] += stats.DegreeKS(degs, rel.degrees) / k
	}
	p.check(checkUtility(r.utility))
	return digest(r.ids)
}

func (r *fitPokecRunner) timed(promSnap) []serverLayer { return nil }

func (r *fitPokecRunner) report() map[string]float64 { return r.utility }
