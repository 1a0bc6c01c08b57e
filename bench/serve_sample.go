package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// serveSampleRunner is serve-sample: independent users asking a running
// agmdp-serve for binary samples of one fitted model, as an open loop. It
// reads only: no fit, no store, no rewiring (FCL), and after warm-up the
// acceptance table is always a cache hit.
type serveSampleRunner struct {
	serverBase
	models    []string
	rng       *rand.Rand
	next      int
	tableFits float64

	mu sync.Mutex
	// bodies holds each response until the window closes: decoding a
	// snapshot costs the benchmark CPU time that in-flight requests need.
	bodies map[int][]byte
	late   []float64 // ms each request was dispatched after it was due
}

func newServeSample(o options) runner {
	return &serveSampleRunner{serverBase: serverBase{o: o}}
}

func (r *serveSampleRunner) setup(ctx context.Context) error {
	if err := r.start(ctx, 1, nil); err != nil {
		return err
	}
	// How long an FCL sample takes depends on the acceptance table, and so
	// on the DP noise of the fit it came from: from 38 to 66 ms over four
	// fits of one graph. Requests cycle through several fits, so a run's
	// latency does not rest on one noise draw.
	r.models = nil
	for k := range sampleModels {
		m, err := r.fit(ctx, r.tenants[0], requestSeed(r.o.seed, 2, k))
		if err != nil {
			return err
		}
		r.models = append(r.models, m)
		// Warm-up: the first default-shaped sample fits and caches the
		// model's acceptance table.
		if _, err = r.sample(ctx, nil, 0, 0, k, requestSeed(r.o.seed, 1, k)); err != nil {
			return err
		}
	}
	var err error
	r.rng = rand.New(rand.NewSource(r.o.seed))
	r.next = 0
	r.bodies = map[int][]byte{}
	r.late = nil
	r.tableFits, err = r.counter("agmdp_engine_acceptance_table_fits_total")
	return err
}

// sampleModels is how many fitted models serve-sample's requests cycle
// through.
const sampleModels = 8

// sample asks for a binary sample of request i's model.
func (r *serveSampleRunner) sample(ctx context.Context, tr *tracer, op, parent int64, i int, seed int64) ([]byte, error) {
	body, err := json.Marshal(map[string]any{"id": r.models[i%len(r.models)], "seed": seed, "format": "binary"})
	if err != nil {
		return nil, err
	}
	data, err := r.tenants[0].do(ctx, tr, op, parent, "POST", "/v1/sample", body, "application/json")
	return data, err
}

// window offers the phase's arrivals and waits for every request to end.
func (r *serveSampleRunner) window(ctx context.Context, p *phase) {
	dues := arrivals(r.rng, r.o.sizes.sampleRate, p.deadline.Sub(p.start))
	first := r.next
	r.next += len(dues)
	openLoop(ctx, p.start, dues, func(i int, due time.Time) {
		r.request(ctx, p, first+i, due)
	})
}

// arrivals cuts the phase into round(rate × length) equal slots and draws
// one send time uniformly within each. Every run of a given length offers
// the same number of requests, as independent users would at that rate, but
// without a Poisson process's clumps: how many requests happen to overlap
// would otherwise change from seed to seed and set the tail on its own.
func arrivals(rng *rand.Rand, rate float64, length time.Duration) []time.Duration {
	dues := make([]time.Duration, int(math.Round(rate*length.Seconds())))
	slot := float64(length) / float64(len(dues))
	for i := range dues {
		dues[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return dues
}

// openLoop calls send(i, due) on its own goroutine at each due time,
// whether or not earlier sends have returned, and waits for all of them.
// Latency measured from due includes any wait a stall imposes on later
// requests; a send started after its due time shows the generator's own
// lateness.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, send func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i, d := range dues {
		due := start.Add(d)
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(due)):
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, due)
		}()
	}
	wg.Wait()
}

func (r *serveSampleRunner) request(ctx context.Context, p *phase, idx int, due time.Time) {
	dispatch := time.Now()
	op := int64(idx)
	root := p.tr.begin(op, 0, rootSpan, due)
	p.tr.record(op, root, "gen.late", due, dispatch)
	data, err := r.sample(ctx, p.tr, op, root, idx, requestSeed(r.o.seed, 0, idx))
	end := time.Now()
	p.tr.end(root, end)
	r.mu.Lock()
	r.late = append(r.late, ms(dispatch.Sub(due)))
	if err == nil {
		r.bodies[idx] = data
	}
	r.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("sample request %d: %w", idx, err)
	}
	p.done(opResult{due: due, end: end, err: err})
}

func (r *serveSampleRunner) finish(ctx context.Context, p *phase) string {
	// After warm-up every sample must reuse the cached acceptance table.
	r.mustStay(p, "agmdp_engine_acceptance_table_fits_total", r.tableFits)
	ids := make([]string, 0, r.next)
	for i := 0; i < r.next; i++ {
		data, ok := r.bodies[i]
		if !ok {
			ids = append(ids, "")
			continue
		}
		ids = append(ids, contentID(data))
		err := checkSnapshot(data, r.nodes)
		if err != nil {
			err = fmt.Errorf("sample request %d: %w", i, err)
		}
		p.check(err)
	}
	// Same seed, same bytes.
	data, err := r.sample(ctx, nil, 0, 0, 0, requestSeed(r.o.seed, 0, 0))
	if err == nil && len(ids) > 0 && ids[0] != "" && contentID(data) != ids[0] {
		err = fmt.Errorf("sample seed of request 0 is not reproducible: %s then %s", contentID(data), ids[0])
	}
	p.check(err)
	return digest(ids)
}

func (r *serveSampleRunner) timed(d promSnap) []serverLayer {
	return []serverLayer{
		{"server.request", "client.http", seconds(d.sum("agmdp_http_request_duration_seconds_sum", map[string]string{"route": "POST /v1/sample"}))},
		{"engine.sample", "server.request", seconds(d.sum("agmdp_engine_sample_duration_seconds_sum", nil))},
		{"structural.seed", "engine.sample", seconds(d.sum("agmdp_structural_seed_duration_seconds_sum", nil))},
		{"structural.rewire", "engine.sample", seconds(d.sum("agmdp_structural_rewire_duration_seconds_sum", nil))},
	}
}

func (r *serveSampleRunner) report() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	late := sortedCopy(r.late)
	return map[string]float64{
		"gen_late_p95_ms":  percentile(late, 95),
		"nominal_rate_rps": r.o.sizes.sampleRate,
	}
}
