package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"agmdp/internal/engine"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/obs"
	"agmdp/internal/registry"
	"agmdp/internal/tenant"
)

// loadOp is one request a mixed-load worker sends.
type loadOp string

const (
	opFit          loadOp = "fit"           // POST /v1/fit, async, ε = 0.4
	opSample       loadOp = "sample"        // POST /v1/sample, summary
	opDownload     loadOp = "download"      // GET /v1/graphs/{id}?format=binary
	opHealthz      loadOp = "healthz"       // GET /v1/healthz
	opGraphMetrics loadOp = "graph_metrics" // GET /v1/graphs/{id}/metrics
	opEvaluate     loadOp = "evaluate"      // POST /v1/evaluate, pair mode
)

// loadResult is the outcome of one mixed-load request.
type loadResult struct {
	op     loadOp
	key    string
	status int
	body   []byte
	err    error
}

// TestMixedLoad drives two tenants through every route class at once, the
// way a real deployment is used: DP fits, samples, downloads, health
// probes, metric bundles and evaluations from four concurrent workers.
// Tenant beta's ε-budget runs dry mid-run. Admission control must show up
// only as 403 (budget, fits only) or 429 (rate limit), never as a 5xx or
// another error; beta's spend must equal ε for each of its fits that
// registered a model and stay within budget; and beta must still sample
// and download for free once exhausted.
func TestMixedLoad(t *testing.T) {
	const (
		epsilon    = 0.4
		betaBudget = 2.0
		workers    = 4
		// Each worker passes over the six ops four times, switching tenant
		// every pass, so beta tries 8 async fits against room for 4 after
		// its setup fit: at least four must be refused.
		opsPerWorker = 24
	)
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Seed: 1})
	t.Cleanup(eng.Close)
	jm, err := jobs.New(jobs.Options{Engine: eng, Store: graphs, Models: reg, Retain: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jm.Close)
	tenants, err := tenant.New(tenant.File{Tenants: []tenant.Tenant{
		{ID: "alpha", Key: "alpha-key", Budget: 1000, RatePerSec: 10000, Burst: 10000},
		{ID: "beta", Key: "beta-key", Budget: betaBudget, RatePerSec: 10000, Burst: 10000},
	}}, tenant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tenants.Close() })
	srv, err := New(Config{
		Registry: reg, Engine: eng, Graphs: graphs, Jobs: jm, Tenants: tenants,
		Metrics: obs.NewRegistry(), SampleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	send := func(method, path, key string, body any) loadResult {
		var rd io.Reader
		if body != nil {
			data, err := json.Marshal(body)
			if err != nil {
				return loadResult{err: err}
			}
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			return loadResult{err: err}
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return loadResult{key: key, err: err}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return loadResult{key: key, status: resp.StatusCode, body: data, err: err}
	}
	dataset := map[string]any{"name": "lastfm", "scale": 0.02, "seed": 1}

	// Setup: each tenant fits (spending ε once) and stores one sample.
	// Content addressing gives both tenants the same model and graph IDs,
	// each holding its own handle.
	keys := []string{"alpha-key", "beta-key"}
	var modelID, graphID string
	for _, key := range keys {
		var fit fitResponse
		res := send("POST", "/v1/fit", key, map[string]any{"dataset": dataset, "epsilon": epsilon, "seed": 1})
		if res.err != nil || res.status != http.StatusOK || json.Unmarshal(res.body, &fit) != nil {
			t.Fatalf("setup fit for %s: %d %v %s", key, res.status, res.err, res.body)
		}
		var sample sampleResponse
		res = send("POST", "/v1/sample", key, map[string]any{"id": fit.ID, "seed": 1, "format": "summary", "store": true})
		if res.err != nil || res.status != http.StatusOK || json.Unmarshal(res.body, &sample) != nil {
			t.Fatalf("setup sample for %s: %d %v %s", key, res.status, res.err, res.body)
		}
		modelID, graphID = fit.ID, sample.GraphID
	}

	ops := []loadOp{opFit, opSample, opDownload, opHealthz, opGraphMetrics, opEvaluate}
	results := make([][]loadResult, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := range opsPerWorker {
				op := ops[(w+i)%len(ops)]
				key := keys[(w+i/len(ops))%len(keys)]
				var res loadResult
				switch op {
				case opFit:
					res = send("POST", "/v1/fit", key, map[string]any{
						"dataset": dataset, "epsilon": epsilon, "seed": rng.Int63(), "async": true,
					})
				case opSample:
					res = send("POST", "/v1/sample", key, map[string]any{
						"id": modelID, "seed": rng.Int63(), "format": "summary",
					})
				case opDownload:
					res = send("GET", "/v1/graphs/"+graphID+"?format=binary", key, nil)
				case opHealthz:
					res = send("GET", "/v1/healthz", key, nil)
				case opGraphMetrics:
					res = send("GET", "/v1/graphs/"+graphID+"/metrics", key, nil)
				case opEvaluate:
					res = send("POST", "/v1/evaluate", key, map[string]any{
						"source_graph_id": graphID, "synthetic_graph_id": graphID,
					})
				}
				res.op = op
				results[w] = append(results[w], res)
			}
		}()
	}
	wg.Wait()

	// Every response is a success or admission control; budget refusals
	// come only from fits.
	var ledgerGraph string
	fitJobs := map[string][]string{} // key -> admitted async fit job IDs
	for _, res := range slices.Concat(results...) {
		switch {
		case res.err != nil:
			t.Errorf("%s as %s: %v", res.op, res.key, res.err)
		case res.status/100 == 2, res.status == http.StatusTooManyRequests:
		case res.status == http.StatusForbidden && res.op == opFit:
			var refusal budgetErrorBody
			if err := json.Unmarshal(res.body, &refusal); err != nil || refusal.Tenant != "beta" || refusal.RemainingEpsilon >= epsilon {
				t.Errorf("budget refusal %s (%v), want beta with under ε=%v left", res.body, err, epsilon)
			}
			ledgerGraph = refusal.Graph
		default:
			t.Errorf("%s as %s: status %d: %s", res.op, res.key, res.status, res.body)
		}
		if res.op == opFit && res.status == http.StatusAccepted {
			var job jobResponse
			if err := json.Unmarshal(res.body, &job); err != nil {
				t.Fatalf("fit job body %s: %v", res.body, err)
			}
			fitJobs[res.key] = append(fitJobs[res.key], job.ID)
		}
	}
	if ledgerGraph == "" {
		t.Fatal("beta's budget never ran dry: no fit answered 403")
	}

	// Settle the ledger: wait for every admitted fit, then close the jobs
	// manager, which returns only once each job's terminal callback (the
	// refund of a fit that registered nothing) has run.
	registered := map[string]int{"alpha-key": 1, "beta-key": 1} // the setup fits
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for key, ids := range fitJobs {
		for _, id := range ids {
			if !jm.Wait(ctx, id) {
				t.Fatalf("fit job %s did not finish", id)
			}
			if info, _, _ := jm.Get(id); info.Fit != nil && info.Fit.ModelID != "" {
				registered[key]++
			}
		}
	}
	jm.Close()
	for _, tc := range []struct {
		id, key string
		budget  float64
	}{{"alpha", "alpha-key", 1000}, {"beta", "beta-key", betaBudget}} {
		spent := tenants.Spent(tc.id, ledgerGraph)
		if want := epsilon * float64(registered[tc.key]); math.Abs(spent-want) > 1e-9 {
			t.Errorf("Spent(%s) = %v, want %v: ε for each of %d fits that registered a model",
				tc.id, spent, want, registered[tc.key])
		}
		if spent > tc.budget+1e-9 {
			t.Errorf("Spent(%s) = %v over budget %v", tc.id, spent, tc.budget)
		}
	}

	// Sampling and downloading stay free for the exhausted tenant.
	for _, res := range []loadResult{
		send("POST", "/v1/sample", "beta-key", map[string]any{"id": modelID, "seed": 99, "format": "summary"}),
		send("GET", "/v1/graphs/"+graphID+"?format=binary", "beta-key", nil),
	} {
		if res.err != nil || res.status != http.StatusOK {
			t.Errorf("exhausted beta: status %d %v: %s", res.status, res.err, res.body)
		}
	}
}
