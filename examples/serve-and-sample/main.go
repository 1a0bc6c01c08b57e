// Command serve-and-sample drives the v1 synthesis service end to end: it
// starts the HTTP API in-process on an ephemeral port, uploads a sensitive
// graph once as a binary CSR snapshot, fits an ε-DP model from the stored
// graph asynchronously (POST /v1/fit with async:true returns a fit job
// whose completion carries the registered model ID), submits an
// asynchronous batch of samples (POST /v1/sample with async:true and a
// count) that stores its samples back into the graph store, polls both jobs
// to completion, and finally downloads one
// synthetic sample as a binary snapshot — the fit-once / serve-many
// workflow the post-processing property of differential privacy enables
// (Algorithm 3 of the paper), with no graph ever travelling inline through
// a request body and no fit ever holding a connection open.
//
// Run with:
//
//	go run ./examples/serve-and-sample
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"agmdp/internal/datasets"
	"agmdp/internal/dp"
	"agmdp/internal/engine"
	"agmdp/internal/graph"
	"agmdp/internal/graphstore"
	"agmdp/internal/jobs"
	"agmdp/internal/registry"
	"agmdp/internal/server"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("serve-and-sample: %v", err)
	}
}

func run() error {
	// 1. Assemble the service: in-memory registry + graph store, a 4-slot
	// engine, and the async job manager.
	reg, err := registry.Open(registry.Options{})
	if err != nil {
		return err
	}
	store, err := graphstore.Open(graphstore.Options{})
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{Workers: 4, Seed: 1, Acceptance: reg})
	defer eng.Close()
	// Models wires fit jobs into the registry; adding Dir here would persist
	// finished-job metadata across restarts (agmdp-serve does, next to its
	// graph store).
	mgr, err := jobs.New(jobs.Options{Engine: eng, Store: store, Models: reg})
	if err != nil {
		return err
	}
	defer mgr.Close()
	srv, err := server.New(server.Config{Registry: reg, Engine: eng, Graphs: store, Jobs: mgr})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("service listening on %s\n", base)

	// 2. Upload once: the sensitive graph travels to the service a single
	// time, as a compact binary CSR snapshot.
	profile, err := datasets.ByName("lastfm")
	if err != nil {
		return err
	}
	sensitive := datasets.Generate(dp.NewRand(1), profile.Scaled(0.5))
	var snapshot bytes.Buffer
	if err := graph.WriteBinaryTo(&snapshot, sensitive); err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/graphs", "application/octet-stream", &snapshot)
	if err != nil {
		return err
	}
	var uploaded struct {
		ID   string `json:"id"`
		Info struct {
			Nodes     int `json:"nodes"`
			Edges     int `json:"edges"`
			SizeBytes int `json:"size_bytes"`
		} `json:"info"`
	}
	if err := decodeStatus(resp, http.StatusCreated, &uploaded); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	fmt.Printf("uploaded sensitive graph: %d nodes, %d edges, %d snapshot bytes -> id %s\n",
		uploaded.Info.Nodes, uploaded.Info.Edges, uploaded.Info.SizeBytes, uploaded.ID)

	// 3. Fit by ID, asynchronously: a private TriCycLe model (ε = 1) over
	// the stored graph. async:true detaches the fit into a job of kind
	// "fit" — the response is an immediate 202 with a job snapshot, and the
	// registered model's content-addressed ID arrives in the finished job's
	// fit result. This is the only step that spends privacy budget; the
	// same graph ID could be fitted again at other settings without
	// re-uploading. The fit pipeline shards its measurement passes over the
	// server's worker count (agmdp-serve -parallelism); the fitted model is
	// bit-identical at every worker count, so the body names none.
	fitStart := time.Now()
	fitBody := fmt.Sprintf(`{"graph_id":%q,"epsilon":1.0,"model":"tricycle","seed":7,"async":true}`, uploaded.ID)
	resp, err = http.Post(base+"/v1/fit", "application/json", bytes.NewReader([]byte(fitBody)))
	if err != nil {
		return err
	}
	var fitJob struct {
		ID     string `json:"id"`
		Kind   string `json:"kind"`
		Status string `json:"status"`
		Fit    *struct {
			ModelID   string  `json:"model_id"`
			ModelName string  `json:"model_name"`
			Epsilon   float64 `json:"epsilon"`
			Error     string  `json:"error"`
		} `json:"fit"`
	}
	if err := decodeStatus(resp, http.StatusAccepted, &fitJob); err != nil {
		return fmt.Errorf("submit fit: %w", err)
	}
	fmt.Printf("submitted fit job %s (kind %s)\n", fitJob.ID, fitJob.Kind)
	for fitJob.Status == "queued" || fitJob.Status == "running" {
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get(base + "/v1/jobs/" + fitJob.ID)
		if err != nil {
			return err
		}
		if err := decodeStatus(resp, http.StatusOK, &fitJob); err != nil {
			return fmt.Errorf("poll fit job: %w", err)
		}
	}
	if fitJob.Status != "done" || fitJob.Fit == nil || fitJob.Fit.ModelID == "" {
		return fmt.Errorf("fit job finished with status %q (%+v)", fitJob.Status, fitJob.Fit)
	}
	fit := struct{ ID string }{ID: fitJob.Fit.ModelID}
	fmt.Printf("fit job done in %v: %s model at epsilon %.2f -> id %s (acceptance table pre-warmed)\n",
		time.Since(fitStart).Round(time.Millisecond), fitJob.Fit.ModelName, fitJob.Fit.Epsilon, fit.ID)

	// 4. Serve many, asynchronously: submit a batch of eight samples, stored
	// into the graph store instead of inlined, and poll its progress.
	start := time.Now()
	jobBody := fmt.Sprintf(`{"id":%q,"async":true,"count":8,"seed":1,"iterations":1,"store":true}`, fit.ID)
	resp, err = http.Post(base+"/v1/sample", "application/json", bytes.NewReader([]byte(jobBody)))
	if err != nil {
		return err
	}
	var job struct {
		ID        string `json:"id"`
		Status    string `json:"status"`
		Count     int    `json:"count"`
		Completed int    `json:"completed"`
		Failed    int    `json:"failed"`
		Results   []struct {
			Seed      int64  `json:"seed"`
			Nodes     int    `json:"nodes"`
			Edges     int    `json:"edges"`
			Triangles int64  `json:"triangles"`
			GraphID   string `json:"graph_id"`
		} `json:"results"`
	}
	if err := decodeStatus(resp, http.StatusAccepted, &job); err != nil {
		return fmt.Errorf("submit job: %w", err)
	}
	fmt.Printf("submitted job %s (%d samples)\n", job.ID, job.Count)
	for job.Status == "queued" || job.Status == "running" {
		time.Sleep(50 * time.Millisecond)
		resp, err = http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return err
		}
		if err := decodeStatus(resp, http.StatusOK, &job); err != nil {
			return fmt.Errorf("poll job: %w", err)
		}
	}
	if job.Status != "done" {
		return fmt.Errorf("job finished with status %q (%d failed)", job.Status, job.Failed)
	}
	fmt.Printf("job done: %d synthetic graphs in %v:\n", job.Completed, time.Since(start).Round(time.Millisecond))
	for _, s := range job.Results {
		fmt.Printf("  seed %d: %d nodes, %d edges, %d triangles -> graph %s\n",
			s.Seed, s.Nodes, s.Edges, s.Triangles, s.GraphID)
	}

	// 5. Download one stored sample as a binary snapshot and decode it
	// locally — the publishable artifact. "done" guarantees at least one
	// success, not that sample 0 in particular succeeded.
	first := job.Results[0]
	for _, s := range job.Results {
		if s.GraphID != "" {
			first = s
			break
		}
	}
	if first.GraphID == "" {
		return fmt.Errorf("job done but no sample was stored")
	}
	resp, err = http.Get(base + "/v1/graphs/" + first.GraphID + "?format=binary")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("download: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	synthetic, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if synthetic.NumEdges() != first.Edges {
		return fmt.Errorf("downloaded sample has %d edges, job reported %d", synthetic.NumEdges(), first.Edges)
	}
	fmt.Printf("downloaded sample %s: %d-byte binary snapshot, decoded to %d nodes / %d edges\n",
		first.GraphID, len(data), synthetic.NumNodes(), synthetic.NumEdges())

	// 6. Determinism spot-check: synchronous samples with equal seeds are
	// byte-identical binary snapshots.
	fetch := func() ([]byte, error) {
		body := fmt.Sprintf(`{"id":%q,"seed":99,"iterations":1,"format":"binary"}`, fit.ID)
		resp, err := http.Post(base+"/v1/sample", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	a, err := fetch()
	if err != nil {
		return err
	}
	b, err := fetch()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("determinism violated: equal seeds gave different snapshots")
	}
	fmt.Printf("determinism check passed: seed 99 twice -> identical %d-byte snapshots\n", len(a))
	return nil
}

// decodeStatus fails on an unexpected status and decodes the JSON body into v.
func decodeStatus(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
