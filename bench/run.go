package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // run record path ("" = none)
	spans    string // span file path ("" = none)
	server   string // agmdp-serve binary
	work     string // scratch directory root for server state
	sizes    sizes
}

// sizes are the input sizes and load levels. fullSizes is the benchmark;
// tinySizes exists for the smoke test, which must finish in seconds.
type sizes struct {
	publishScale float64 // lastfm scale for publish-tricycle
	pokecScale   float64 // pokec scale for fit-pokec
	serveScale   float64 // pokec scale of the graph both serving workloads upload
	sampleRate   float64 // serve-sample's nominal arrival rate, requests/s
	setupReps    int     // set-ups per run; setup_s is their median
}

var (
	fullSizes = sizes{publishScale: 0.5, pokecScale: 0.1, serveScale: 0.01, sampleRate: 5, setupReps: 3}
	tinySizes = sizes{publishScale: 0.1, pokecScale: 0.01, serveScale: 0.002, sampleRate: 20, setupReps: 1}
)

// digestOps is how many outputs of an op sequence feed the output digest: a
// fixed prefix, so the digest does not depend on how many ops a run fits.
const digestOps = 8

// workload is one set of inputs and one traffic pattern.
type workload struct {
	name string
	// tail is the percentile reported as latency_tail_ms, one the
	// workload's sample count per run supports with minBeyond samples
	// beyond. publish-tricycle stops at p75 although its ~60 ops would allow
	// p90: how long an op rewires depends on its DP noise draw, so its top
	// tenth is a handful of ops that differ from seed to seed.
	tail float64
	// open marks an open loop, whose throughput is the offered rate rather
	// than a measure of speed.
	open bool
	make func(o options) runner
}

var workloads = []workload{
	{name: "publish-tricycle", tail: 75, make: newPublish},
	{name: "fit-pokec", tail: 75, make: newFitPokec},
	{name: "serve-sample", tail: 90, open: true, make: newServeSample},
	{name: "serve-mixed", tail: 95, make: newServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner drives one workload through a run.
type runner interface {
	// setup builds the inputs from the seed, brings the system up and runs one
	// untimed warm-up op. It may be called again after teardown.
	setup(ctx context.Context) error
	// teardown stops whatever setup started and removes its files.
	teardown()
	// target is the process doing the work, whose CPU, memory and metrics
	// the run reads.
	target() target
	// window runs ops from p.start until p.deadline and records them on p.
	window(ctx context.Context, p *phase)
	// finish runs the checks made after timing, recording failures on p, and
	// returns the output digest.
	finish(ctx context.Context, p *phase) string
	// timed maps a phase's metrics delta to the layers timed inside the
	// program rather than by benchmark spans.
	timed(d promSnap) []serverLayer
	// report returns extra figures for the human report and the run record
	// (utility of the outputs, generator lateness).
	report() map[string]float64
}

// target reads one process's resources.
type target struct {
	pid    int
	scrape func() (promSnap, error)
	mem    func() (memStats, error)
}

// opResult is one timed op. Latency runs from due (the scheduled send time
// in an open loop, the start otherwise) to end.
type opResult struct {
	due, end time.Time
	err      error
}

// phase collects the ops and failures of one stretch of timed load.
type phase struct {
	start, deadline time.Time
	tr              *tracer // nil when the phase is untraced

	mu       sync.Mutex
	ops      []opResult
	failures []string
	checks   int
}

func (p *phase) done(r opResult) {
	p.mu.Lock()
	p.ops = append(p.ops, r)
	p.mu.Unlock()
}

// check records one correctness check made outside an op; a non-nil err
// fails it.
func (p *phase) check(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checks++
	if err != nil {
		p.failures = append(p.failures, err.Error())
	}
}

// usage is a resource snapshot of the target (and of the benchmark process).
type usage struct {
	cpu     time.Duration
	selfCPU time.Duration
	mem     memStats
	writes  int64
	prom    promSnap
}

func (t target) usage() (usage, error) {
	var u usage
	var err error
	if u.cpu, err = procCPU(t.pid); err != nil {
		return u, err
	}
	if u.selfCPU, err = procCPU(os.Getpid()); err != nil {
		return u, err
	}
	if u.mem, err = t.mem(); err != nil {
		return u, err
	}
	if u.prom, err = t.scrape(); err != nil {
		return u, err
	}
	// Some kernels hide /proc/<pid>/io; disk writes then read as zero.
	u.writes, _ = procWriteBytes(t.pid)
	return u, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured; compare reads these.
type record struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	NumCPU        int                `json:"num_cpu"`
	GoVersion     string             `json:"go_version"`
	CalibrationMS [2]float64         `json:"calibration_ms"`
	SetupS        []float64          `json:"setup_s_samples"`
	Digest        string             `json:"digest"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Failures      []string           `json:"failures,omitempty"`
	Metrics       map[string]metric  `json:"metrics"`
	Extra         map[string]float64 `json:"extra,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload run and prints its report, ending with the
// result line. It returns the record; an error means no result was printed.
func run(ctx context.Context, o options, stdout io.Writer) (*record, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rec := &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Extra: map[string]float64{},
	}
	rec.CalibrationMS[0] = ms(calibrate())

	r := w.make(o)
	defer r.teardown()
	for i := 0; i < max(o.sizes.setupReps, 1); i++ {
		if i > 0 {
			r.teardown()
		}
		h0, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := r.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		took := time.Since(start)
		h1, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		rec.SetupS = append(rec.SetupS, took.Seconds()*(1-stealShare(h0, h1)))
	}
	// Return the set-up's garbage to the OS so the timed window's RSS is the
	// ops' own.
	debug.FreeOSMemory()

	// The timed window: one untraced phase, or, when tracing, an untraced
	// half followed by a traced half of the same load, so the per-layer
	// figures come only from traced ops and the two halves' medians give
	// the tracing overhead.
	t := r.target()
	length := time.Duration(o.seconds * float64(time.Second))
	halves := 1
	if o.trace {
		length /= 2
		halves = 2
	}
	var (
		phases []*phase
		snaps  []usage
	)
	smp := startSampler(t.pid)
	tr := newTracer(time.Now())
	for i := range halves {
		u, err := t.usage()
		if err != nil {
			smp.stop()
			return nil, fmt.Errorf("reading resource usage: %w", err)
		}
		snaps = append(snaps, u)
		p := &phase{start: time.Now()}
		p.deadline = p.start.Add(length)
		if i == 1 {
			p.tr = tr
		}
		r.window(ctx, p)
		phases = append(phases, p)
	}
	rss, host, smpErr := smp.stop()
	u, err := t.usage()
	if err != nil {
		return nil, fmt.Errorf("reading resource usage: %w", err)
	}
	snaps = append(snaps, u)
	if smpErr != nil {
		return nil, fmt.Errorf("sampling RSS and steal: %w", smpErr)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for _, p := range phases {
		if len(p.ops) == 0 {
			return nil, fmt.Errorf("%s: no op ran in a %v phase", w.name, length)
		}
	}

	checks := &phase{}
	rec.Digest = r.finish(ctx, checks)
	r.teardown()
	rec.CalibrationMS[1] = ms(calibrate())

	for _, p := range append(phases, checks) {
		rec.Attempted += len(p.ops) + p.checks
		for _, op := range p.ops {
			if op.err != nil {
				rec.Failures = append(rec.Failures, op.err.Error())
			}
		}
		rec.Failures = append(rec.Failures, p.failures...)
	}
	rec.Failed = len(rec.Failures)
	rec.Correct = rec.Failed == 0
	if len(rec.Failures) > 20 {
		rec.Failures = rec.Failures[:20]
	}
	for k, v := range r.report() {
		rec.Extra[k] = v
	}

	var (
		spans []span
		self  map[string]time.Duration
	)
	if o.trace {
		spans = tr.snapshot()
		d := delta(snaps[1].prom, snaps[2].prom)
		self = layerSelf(spans, r.timed(d))
		rec.Metrics = perLayerMetrics(t.pid, phases[0], phases[1], spans, self, d, host, snaps[1], snaps[2])
		rec.Extra["coverage_pct"] = 100 - rec.Metrics["unaccounted_pct"].Value
	} else {
		rec.Metrics = endToEndMetrics(w, phases[0], rec.SetupS, snaps[0], snaps[1], rss, host, rec.Extra)
		n := len(phases[0].ops)
		rec.Extra["samples"] = float64(n)
		rec.Extra["samples_beyond_tail"] = float64(beyond(n, w.tail))
	}
	for name, m := range rec.Metrics {
		if !isFinite(m.Value) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, name, m.Value)
		}
	}

	printReport(stdout, rec, w, self, opWall(spans), countRoots(spans))
	if o.spans != "" && o.trace {
		if err := writeSpans(o.spans, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("writing run record: %w", err)
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns a phase's op latencies in ms, sorted, each scaled by
// 1 − the host's steal share around the op (none with a nil series). A
// failed op counts as missing every latency limit: it takes the whole phase
// length.
func latencies(p *phase, host hostSeries) []float64 {
	limit := ms(p.deadline.Sub(p.start))
	out := make([]float64, 0, len(p.ops))
	for _, op := range p.ops {
		l := ms(op.end.Sub(op.due)) * (1 - host.stealOver(op.due, op.end))
		if op.err != nil {
			l = max(l, limit)
		}
		out = append(out, l)
	}
	return sortedCopy(out)
}

// completed counts a phase's successful ops and the time from the phase
// start to the last op's end.
func completed(p *phase) (int, time.Duration) {
	n := 0
	var last time.Time
	for _, op := range p.ops {
		if op.err == nil {
			n++
		}
		if op.end.After(last) {
			last = op.end
		}
	}
	return n, last.Sub(p.start)
}

// metricSpec names a metric, its unit and which direction is better.
type metricSpec struct{ name, unit, better string }

// endToEndSpecs are the metrics a user of the system sees. BENCHMARK.json
// lists the same names, units and directions, plus each one's bound.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"alloc_mib_per_op", "MiB", "lower"},
	{"rss_p90_mib", "MiB", "lower"},
}

// endToEndMetrics computes the user-visible metrics of an untraced phase.
// Wall-clock times are scaled by 1−s, where s is the share of the wanted CPU
// time the hypervisor stole around each op, so that they read as on an
// unshared host; a closed loop's throughput is scaled by 1/(1−s) over the
// phase likewise. The raw wall-clock figures, the phase's s and the CPU
// time per op go to extra.
func endToEndMetrics(w workload, p *phase, setup []float64, u0, u2 usage, rss []float64, host hostSeries, extra map[string]float64) map[string]metric {
	lat, raw := latencies(p, host), latencies(p, nil)
	ok, span := completed(p)
	per := float64(max(ok, 1))
	rate := float64(ok) / span.Seconds()
	s := host.stealOver(p.start, p.start.Add(span))
	extra["steal_pct"] = 100 * s
	extra["wall_latency_p50_ms"] = percentile(raw, 50)
	extra["wall_latency_tail_ms"] = percentile(raw, w.tail)
	extra["wall_ops_per_s"] = rate
	extra["cpu_ms_per_op"] = ms(u2.cpu-u0.cpu) / per
	extra["rss_max_mib"] = slices.Max(rss) / (1 << 20)
	if !w.open {
		rate /= 1 - s
	}
	vals := map[string]float64{
		"setup_s":          median(setup),
		"ops_per_s":        rate,
		"latency_p50_ms":   percentile(lat, 50),
		"latency_tail_ms":  percentile(lat, w.tail),
		"alloc_mib_per_op": float64(u2.mem.totalAlloc-u0.mem.totalAlloc) / (1 << 20) / per,
		"rss_p90_mib":      percentile(sortedCopy(rss), 90) / (1 << 20),
	}
	return withUnits(endToEndSpecs, vals)
}

func withUnits(specs []metricSpec, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

// shareLayers are the layers whose self time is reported as a share of op
// wall time. Together with unaccounted_pct they partition the ops' time;
// a layer a workload bypasses reads 0.
var shareLayers = []string{
	"gen.late", "client.wait", "client.http", "client.poll_wait",
	"server.request", "engine.sample", "analytics.compute",
	"core.fit", "core.fit.attrs", "core.fit.correlations", "core.fit.degrees", "core.fit.triangles",
	"core.table_warm", "registry.put",
	"core.sample", "structural.seed", "structural.rewire",
	"graph.encode", "graph.decode",
}

// perLayerSpecs are the traced run's metrics: layer self-time shares, the
// tracing overhead, and per-op work counts read where the work happens.
var perLayerSpecs = func() []metricSpec {
	specs := []metricSpec{{"unaccounted_pct", "%", "lower"}}
	for _, l := range shareLayers {
		specs = append(specs, metricSpec{l + "_pct", "%", "lower"})
	}
	return append(specs,
		metricSpec{"op.wall_ms", "ms", "lower"},
		metricSpec{"trace.overhead_pct", "%", "lower"},
		metricSpec{"parallel.busy_pct", "%", "lower"},
		metricSpec{"bench.cpu_share_pct", "%", "lower"},
		metricSpec{"cpu_ms_per_op", "ms", "lower"},
		metricSpec{"parallel.tasks", "count", "lower"},
		metricSpec{"structural.generations", "count", "lower"},
		metricSpec{"engine.samples", "count", "lower"},
		metricSpec{"engine.table_fits", "count", "lower"},
		metricSpec{"registry.puts", "count", "lower"},
		metricSpec{"graphstore.puts", "count", "lower"},
		metricSpec{"graphstore.decodes", "count", "lower"},
		metricSpec{"graphstore.lookups", "count", "lower"},
		metricSpec{"graphstore.hit_ratio", "ratio", "higher"},
		metricSpec{"analytics.lookups", "count", "lower"},
		metricSpec{"analytics.computes", "count", "lower"},
		metricSpec{"analytics.hit_ratio", "ratio", "higher"},
		metricSpec{"tenant.admission_rejects", "count", "lower"},
		metricSpec{"http.requests", "count", "lower"},
		metricSpec{"gc.cycles", "count", "lower"},
		metricSpec{"disk.write_kib_per_op", "KiB", "lower"},
	)
}()

// perLayerMetrics computes the traced phase b's layer figures; phase a ran
// the same load untraced, and the ratio of their medians is the tracing
// overhead. Counts are per completed op of b unless they must be zero
// (table fits after warm-up, admission refusals), which are totals.
func perLayerMetrics(pid int, a, b *phase, spans []span, self map[string]time.Duration, d promSnap, host hostSeries, u1, u2 usage) map[string]metric {
	wall := opWall(spans)
	ok, _ := completed(b)
	per := float64(max(ok, 1))
	share := func(t time.Duration) float64 { return 100 * float64(t) / float64(max(wall, 1)) }

	vals := map[string]float64{"unaccounted_pct": share(self[rootSpan])}
	for _, l := range shareLayers {
		vals[l+"_pct"] = share(self[l])
	}
	httpCalls := 0
	for _, s := range spans {
		if s.Name == "client.http" {
			httpCalls++
		}
	}
	ratio := func(hits, lookups float64) float64 {
		if lookups == 0 {
			return 0
		}
		return hits / lookups
	}
	gsHits, gsMisses := d.sum("agmdp_graphstore_cache_hits_total", nil), d.sum("agmdp_graphstore_cache_misses_total", nil)
	anHits, anMisses := d.sum("agmdp_analytics_cache_hits_total", nil), d.sum("agmdp_analytics_cache_misses_total", nil)
	cpu, selfCPU := u2.cpu-u1.cpu, u2.selfCPU-u1.selfCPU
	benchShare := 100.0
	if pid != os.Getpid() {
		benchShare = 100 * float64(selfCPU) / float64(max(selfCPU+cpu, 1))
	}
	for k, v := range map[string]float64{
		"op.wall_ms":               ms(wall) / float64(max(countRoots(spans), 1)),
		"trace.overhead_pct":       100 * (percentile(latencies(b, host), 50)/percentile(latencies(a, host), 50) - 1),
		"cpu_ms_per_op":            ms(cpu) / per,
		"parallel.busy_pct":        share(seconds(d.sum("agmdp_pool_task_duration_seconds_sum", nil))),
		"bench.cpu_share_pct":      benchShare,
		"parallel.tasks":           d.sum("agmdp_pool_tasks_total", nil) / per,
		"structural.generations":   d.sum("agmdp_structural_seed_duration_seconds_count", nil) / per,
		"engine.samples":           d.sum("agmdp_engine_sample_duration_seconds_count", nil) / per,
		"engine.table_fits":        d.sum("agmdp_engine_acceptance_table_fits_total", nil),
		"registry.puts":            d.sum("agmdp_registry_puts_total", nil) / per,
		"graphstore.puts":          d.sum("agmdp_graphstore_puts_total", nil) / per,
		"graphstore.decodes":       d.sum("agmdp_graphstore_decodes_total", nil) / per,
		"graphstore.lookups":       (gsHits + gsMisses) / per,
		"graphstore.hit_ratio":     ratio(gsHits, gsHits+gsMisses),
		"analytics.lookups":        (anHits + anMisses) / per,
		"analytics.computes":       d.sum("agmdp_analytics_computes_total", nil) / per,
		"analytics.hit_ratio":      ratio(anHits, anHits+anMisses),
		"tenant.admission_rejects": d.sum("agmdp_admission_rejects_total", nil),
		"http.requests":            float64(httpCalls) / per,
		"gc.cycles":                float64(u2.mem.numGC-u1.mem.numGC) / per,
		"disk.write_kib_per_op":    float64(u2.writes-u1.writes) / 1024 / per,
	} {
		vals[k] = v
	}
	return withUnits(perLayerSpecs, vals)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func countRoots(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootSpan {
			n++
		}
	}
	return n
}

// printReport writes the human-readable part of a run's output.
func printReport(w io.Writer, rec *record, wl workload, self map[string]time.Duration, wall time.Duration, tracedOps int) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0fs  trace=%v  GOMAXPROCS=%d  %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Fprintf(w, "calibration %.1f ms before, %.1f ms after; setup %s s\n",
		rec.CalibrationMS[0], rec.CalibrationMS[1], joinFloats(rec.SetupS))
	specs := endToEndSpecs
	if rec.Trace {
		specs = perLayerSpecs
		fmt.Fprint(w, formatLayers(self, wall, tracedOps))
	}
	for _, s := range specs {
		m := rec.Metrics[s.name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", s.name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(rec.Extra))
	for k := range rec.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.4f\n", k, rec.Extra[k])
	}
	if !rec.Trace {
		fmt.Fprintf(w, "  latency_tail_ms is p%g over %.0f samples (%.0f beyond)\n",
			wl.tail, rec.Extra["samples"], rec.Extra["samples_beyond_tail"])
		if rec.Extra["samples_beyond_tail"] < minBeyond {
			fmt.Fprintf(w, "  WARNING: fewer than %d samples beyond the tail percentile; it rests on a few ops\n", minBeyond)
		}
	}
	fmt.Fprintf(w, "digest %s\n", rec.Digest)
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// isFinite guards values headed for JSON, which has no Inf or NaN.
func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
