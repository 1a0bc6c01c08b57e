package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"agmdp/internal/core"
)

// mixedCycle is one caller's op mix: every cycle runs each class this many
// times, in an order shuffled per cycle. The delete evicts the deleteBatch
// oldest stored samples and each fit evicts the previous fit's model, so
// each caller's stored set stays between storedDepth−deleteBatch and
// storedDepth+deleteBatch graphs and the server's state does not grow with
// the op count. Three ops in ten are millisecond reads and deletes and one
// is a fit, so the median lands a third of the way into the stored samples
// and the p95 halfway into the fits, rather than on the edge between two
// classes, where which class a run's percentile falls in would set it.
var mixedCycle = []struct {
	class string
	count int
}{
	{"fit", 1},
	{"sample_store", 6},
	{"download", 1},
	{"graph_metrics", 1},
	{"delete", 1},
}

// storedDepth is how many stored samples each caller holds at a cycle start,
// and deleteBatch how many of the oldest a delete op removes: as many as a
// cycle stores.
const (
	storedDepth = 8
	deleteBatch = 6
)

// pollInterval is how often a caller polls its async fit job.
const pollInterval = 5 * time.Millisecond

// serveMixedRunner is serve-mixed: two tenants, each a closed-loop caller,
// writing and reading through the same graph store, registry and engine:
// async DP fits polled to completion, stored samples, binary downloads,
// metric bundles and deletes, with models, graphs and the ε-ledger on disk.
type serveMixedRunner struct {
	serverBase
	callers []*mixedCaller
	rejects float64

	mu      sync.Mutex
	byClass map[string][]float64
}

// mixedModels is how many fitted models each caller's stored samples cycle
// through. An FCL sample's cost depends on its model's DP noise draw (see
// sampleModels), and the median op is a stored sample.
const mixedModels = 4

// mixedCaller is one tenant's closed loop.
type mixedCaller struct {
	c       *client
	index   int
	models  []string
	stores  int // sample_store ops so far; the next one uses models[stores%len(models)]
	stored  []string
	rng     *rand.Rand
	slate   []string
	next    int
	outputs []string // identifiers of the first digestOps outputs
	// fitted is the model the caller's last fit made, checked and evicted
	// by its next fit.
	fitted string
	// firstStore is the model, seed and graph ID of the first sample_store op.
	firstStoreModel string
	firstStoreSeed  int64
	firstStoreID    string
}

func newServeMixed(o options) runner {
	return &serveMixedRunner{serverBase: serverBase{o: o}}
}

func (r *serveMixedRunner) setup(ctx context.Context) error {
	err := r.start(ctx, len(tenantKeys), func(dir string) []string {
		return []string{
			"-store", filepath.Join(dir, "models"),
			"-graph-store", filepath.Join(dir, "graphs"),
			"-tenant-dir", filepath.Join(dir, "ledger"),
		}
	})
	if err != nil {
		return err
	}
	r.callers = nil
	r.byClass = map[string][]float64{}
	for i, c := range r.tenants {
		mc := &mixedCaller{c: c, index: i, rng: rand.New(rand.NewSource(r.o.seed*10 + int64(i)))}
		for k := range mixedModels {
			m, err := r.fit(ctx, c, requestSeed(r.o.seed, 8+i, k))
			if err != nil {
				return err
			}
			mc.models = append(mc.models, m)
		}
		// Warm-up: fill the stored set. Since storedDepth ≥ mixedModels, this
		// fits and caches every model's acceptance table.
		for j := 0; j < storedDepth; j++ {
			id, err := r.sampleStore(ctx, nil, 0, 0, mc, mc.nextModel(), requestSeed(r.o.seed, 12+i, j))
			if err != nil {
				return err
			}
			mc.stored = append(mc.stored, id)
		}
		r.callers = append(r.callers, mc)
	}
	r.rejects, err = r.counter("agmdp_admission_rejects_total")
	return err
}

// nextModel returns the model the caller's next stored sample uses.
func (mc *mixedCaller) nextModel() string {
	m := mc.models[mc.stores%len(mc.models)]
	mc.stores++
	return m
}

func (r *serveMixedRunner) sampleStore(ctx context.Context, tr *tracer, op, parent int64, mc *mixedCaller, model string, seed int64) (string, error) {
	var out struct {
		GraphID string `json:"graph_id"`
		Nodes   int    `json:"nodes"`
	}
	err := mc.c.doJSON(ctx, tr, op, parent, "POST", "/v1/sample", map[string]any{
		"id": model, "seed": seed, "store": true, "format": "summary",
	}, &out)
	if err == nil && (out.GraphID == "" || out.Nodes != r.nodes) {
		err = fmt.Errorf("stored sample: graph %q with %d nodes, want %d nodes", out.GraphID, out.Nodes, r.nodes)
	}
	return out.GraphID, err
}

func (r *serveMixedRunner) window(ctx context.Context, p *phase) {
	var wg sync.WaitGroup
	for _, mc := range r.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(p.deadline) && ctx.Err() == nil {
				r.op(ctx, p, mc)
			}
		}()
	}
	wg.Wait()
}

// nextClass returns the caller's next op class, refilling and shuffling the
// slate at each cycle start.
func (mc *mixedCaller) nextClass() string {
	if len(mc.slate) == 0 {
		for _, c := range mixedCycle {
			for range c.count {
				mc.slate = append(mc.slate, c.class)
			}
		}
		mc.rng.Shuffle(len(mc.slate), func(i, j int) { mc.slate[i], mc.slate[j] = mc.slate[j], mc.slate[i] })
	}
	class := mc.slate[0]
	mc.slate = mc.slate[1:]
	return class
}

func (r *serveMixedRunner) op(ctx context.Context, p *phase, mc *mixedCaller) {
	class := mc.nextClass()
	i := mc.next
	mc.next++
	seed := requestSeed(r.o.seed, mc.index, i)
	id := int64(mc.index)<<32 | int64(i)
	start := time.Now()
	root := p.tr.begin(id, 0, rootSpan, start)
	out, err := r.do(ctx, p.tr, id, root, mc, class, seed)
	end := time.Now()
	p.tr.end(root, end)
	if err != nil {
		err = fmt.Errorf("%s op %d of tenant %d: %w", class, i, mc.index, err)
	} else if len(mc.outputs) < digestOps {
		mc.outputs = append(mc.outputs, class+" "+out)
	}
	r.mu.Lock()
	r.byClass[class] = append(r.byClass[class], ms(end.Sub(start)))
	r.mu.Unlock()
	p.done(opResult{due: start, end: end, err: err})
}

// do runs one op and returns an identifier of its output.
func (r *serveMixedRunner) do(ctx context.Context, tr *tracer, op, root int64, mc *mixedCaller, class string, seed int64) (string, error) {
	// Reads pick any of the caller's stored samples, so some find their metric
	// bundle already computed and some do not.
	picked := mc.stored[mc.rng.Intn(len(mc.stored))]
	switch class {
	case "fit":
		return r.fitAsync(ctx, tr, op, root, mc, seed)
	case "sample_store":
		model := mc.nextModel()
		id, err := r.sampleStore(ctx, tr, op, root, mc, model, seed)
		if err == nil {
			mc.stored = append(mc.stored, id)
			if mc.firstStoreID == "" {
				mc.firstStoreModel, mc.firstStoreSeed, mc.firstStoreID = model, seed, id
			}
		}
		return id, err
	case "download":
		data, err := mc.c.do(ctx, tr, op, root, "GET", "/v1/graphs/"+picked+"?format=binary", nil, "")
		if err != nil {
			return "", err
		}
		if got := contentID(data); got != picked {
			return "", fmt.Errorf("download of %s hashes to %s", picked, got)
		}
		return picked, checkSnapshot(data, r.nodes)
	case "graph_metrics":
		data, err := mc.c.do(ctx, tr, op, root, "GET", "/v1/graphs/"+picked+"/metrics", nil, "")
		if err != nil {
			return "", err
		}
		if !strings.Contains(string(data), fmt.Sprintf(`"graph_id":%q`, picked)) ||
			!strings.Contains(string(data), fmt.Sprintf(`"nodes":%d`, r.nodes)) {
			return "", fmt.Errorf("metrics of %s: unexpected bundle %.200s", picked, data)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:8]), nil
	case "delete":
		gone := mc.stored[:deleteBatch]
		for _, id := range gone {
			if _, err := mc.c.do(ctx, tr, op, root, "DELETE", "/v1/graphs/"+id, nil, ""); err != nil {
				return "", err
			}
		}
		mc.stored = mc.stored[deleteBatch:]
		return strings.Join(gone, " "), nil
	}
	return "", fmt.Errorf("unknown op class %q", class)
}

// fitAsync submits an async DP fit of the caller's uploaded graph and polls
// the job until it ends, then checks and evicts the model the caller's
// previous fit made. The op's result is the new model's ID.
//
// The previous model rather than the new one: the server reports a fit job
// done before it records the submitting tenant as the model's owner, so a
// request for the model right after can still answer 404.
func (r *serveMixedRunner) fitAsync(ctx context.Context, tr *tracer, op, root int64, mc *mixedCaller, seed int64) (string, error) {
	type jobInfo struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Fit    *struct {
			ModelID string `json:"model_id"`
			Error   string `json:"error"`
		} `json:"fit"`
	}
	var job jobInfo
	err := mc.c.doJSON(ctx, tr, op, root, "POST", "/v1/fit", map[string]any{
		"graph_id": r.graphID, "epsilon": epsilon, "model": "fcl", "seed": seed, "async": true,
	}, &job)
	for err == nil && (job.Status == "queued" || job.Status == "running") {
		start := time.Now()
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(pollInterval):
		}
		tr.record(op, root, "client.poll_wait", start, time.Now())
		err = mc.c.doJSON(ctx, tr, op, root, "GET", "/v1/jobs/"+job.ID, nil, &job)
	}
	if err != nil {
		return "", err
	}
	if job.Status != "done" || job.Fit == nil || job.Fit.ModelID == "" {
		return "", fmt.Errorf("fit job %s ended %q", job.ID, job.Status)
	}
	prev := mc.fitted
	mc.fitted = job.Fit.ModelID
	if prev == "" {
		return mc.fitted, nil
	}
	return mc.fitted, checkAndEvictModel(ctx, tr, op, root, mc.c, prev)
}

// checkAndEvictModel fetches a fitted model, checks that it deserializes,
// validates and hashes to its ID, then deletes it.
func checkAndEvictModel(ctx context.Context, tr *tracer, op, root int64, c *client, id string) error {
	data, err := c.do(ctx, tr, op, root, "GET", "/v1/models/"+id+"?full=1", nil, "")
	if err != nil {
		return err
	}
	m, err := core.UnmarshalModel(data)
	if err == nil {
		err = m.Validate()
	}
	if err == nil && core.ModelIDFromBytes(data) != id {
		err = fmt.Errorf("model %s hashes to %s", id, core.ModelIDFromBytes(data))
	}
	if err != nil {
		return fmt.Errorf("model %s: %w", id, err)
	}
	_, err = c.do(ctx, tr, op, root, "DELETE", "/v1/models/"+id, nil, "")
	return err
}

func (r *serveMixedRunner) finish(ctx context.Context, p *phase) string {
	r.mustStay(p, "agmdp_admission_rejects_total", r.rejects)
	var outputs []string
	for _, mc := range r.callers {
		if mc.fitted != "" {
			p.check(checkAndEvictModel(ctx, nil, 0, 0, mc.c, mc.fitted))
		}
		// Same seed, same stored graph.
		if mc.firstStoreID != "" {
			id, err := r.sampleStore(ctx, nil, 0, 0, mc, mc.firstStoreModel, mc.firstStoreSeed)
			if err == nil && id != mc.firstStoreID {
				err = fmt.Errorf("stored sample seed %d is not reproducible: %s then %s", mc.firstStoreSeed, mc.firstStoreID, id)
			}
			p.check(err)
		}
		outputs = append(outputs, mc.outputs...)
	}
	return digest(outputs)
}

func (r *serveMixedRunner) timed(d promSnap) []serverLayer {
	var api float64
	for _, s := range d {
		route := s.labels["route"]
		if s.name == "agmdp_http_request_duration_seconds_sum" && strings.Contains(route, "/v1/") {
			api += s.value
		}
	}
	stage := func(name string) time.Duration {
		return seconds(d.sum("agmdp_jobs_stage_duration_seconds_sum", map[string]string{"kind": "fit", "stage": name}))
	}
	// A fit job runs in the server while its caller alternates between
	// polling requests and sleeps, so its stages overlap both and are
	// reported without being subtracted from either.
	return []serverLayer{
		{"server.request", "client.http", seconds(api)},
		{"engine.sample", "server.request", seconds(d.sum("agmdp_engine_sample_duration_seconds_sum", nil))},
		{"analytics.compute", "server.request", seconds(d.sum("agmdp_analytics_stage_duration_seconds_sum", nil))},
		{"core.fit.attrs", "", stage("attrs")},
		{"core.fit.correlations", "", stage("correlations")},
		{"core.fit.degrees", "", stage("degrees")},
		{"core.fit.triangles", "", stage("triangles")},
		{"core.table_warm", "", stage("table_warm")},
		{"registry.put", "", stage("store")},
	}
}

func (r *serveMixedRunner) report() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for class, lat := range r.byClass {
		out["client."+class+"_p95_ms"] = percentile(sortedCopy(lat), 95)
		out["client."+class+"_ops"] = float64(len(lat))
	}
	return out
}
