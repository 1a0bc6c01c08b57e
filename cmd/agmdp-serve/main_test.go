package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"agmdp/internal/atomicfile"
)

// startService runs the serve command on an ephemeral port and returns its
// base URL plus a shutdown function that waits for a clean exit.
func startService(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	addrc := make(chan string, 1)
	stopc := make(chan func(), 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extraArgs...)
	var buf strings.Builder
	go func() {
		errc <- run(args, &buf, func(addr string, stop func()) {
			addrc <- addr
			stopc <- stop
		})
	}()
	select {
	case addr := <-addrc:
		stop := <-stopc
		return "http://" + addr, func() {
			stop()
			select {
			case err := <-errc:
				if err != nil {
					t.Errorf("serve exited with %v (output %q)", err, buf.String())
				}
			case <-time.After(30 * time.Second):
				t.Error("serve did not shut down")
			}
		}
	case err := <-errc:
		t.Fatalf("serve failed to start: %v", err)
		return "", nil
	}
}

func TestServeEndToEnd(t *testing.T) {
	store := t.TempDir()
	base, shutdown := startService(t, "-store", store)

	// Health.
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Fit once.
	fit, err := http.Post(base+"/v1/fit", "application/json", strings.NewReader(
		`{"dataset":{"name":"lastfm","scale":0.1,"seed":1},"epsilon":1.0,"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var fr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(fit.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	fit.Body.Close()
	if fit.StatusCode != http.StatusOK || fr.ID == "" {
		t.Fatalf("fit: %d, id %q", fit.StatusCode, fr.ID)
	}

	// Sample twice at the same seed: identical summaries.
	sample := func() string {
		resp, err := http.Post(base+"/v1/sample", "application/json", strings.NewReader(
			fmt.Sprintf(`{"id":%q,"seed":9,"iterations":1,"format":"summary"}`, fr.ID)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample: %d %s", resp.StatusCode, b)
		}
		return string(b)
	}
	if a, b := sample(), sample(); a != b {
		t.Fatalf("equal seeds gave different summaries: %s vs %s", a, b)
	}

	// A default-shaped sample fits the model's acceptance table, which
	// persists next to the model file as <id>.table.
	defaultSample := func(base string) string {
		resp, err := http.Post(base+"/v1/sample", "application/json", strings.NewReader(
			fmt.Sprintf(`{"id":%q,"seed":9,"format":"summary"}`, fr.ID)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("default sample: %d %s", resp.StatusCode, b)
		}
		return string(b)
	}
	before := defaultSample(base)
	tables, _ := filepath.Glob(filepath.Join(store, "*.table"))
	if len(tables) == 0 {
		t.Fatal("default-shaped sample left no persisted acceptance table next to the model")
	}
	shutdown()

	// The store directory persists the model — and its acceptance table —
	// across a restart.
	base2, shutdown2 := startService(t, "-store", store)
	defer shutdown2()
	resp2, err := http.Get(base2 + "/v1/models/" + fr.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("model did not survive restart: %d", resp2.StatusCode)
	}
	// The reloaded table serves the same distribution: equal seeds, equal
	// summaries across the restart.
	if after := defaultSample(base2); after != before {
		t.Fatalf("default sample changed across restart: %s vs %s", before, after)
	}
}

// TestServeV1GraphStoreSurvivesRestart drives the v1 resource flow against
// the real command: upload a graph as a binary snapshot, restart the service
// on the same -graph-store directory, then fit the reloaded graph by ID.
func TestServeV1GraphStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	base, shutdown := startService(t, "-graph-store", dir)

	// A small ring graph, uploaded through the JSON format (the store
	// re-encodes it canonically, so the binary download below is exactly the
	// persisted snapshot) — no internal package imports needed here.
	payload := `{"n":6,"w":0,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}`
	up, err := http.Post(base+"/v1/graphs", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var gr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(up.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusCreated || gr.ID == "" {
		t.Fatalf("upload: %d, id %q", up.StatusCode, gr.ID)
	}

	// Download the canonical binary snapshot while the first instance runs.
	down, err := http.Get(base + "/v1/graphs/" + gr.ID + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	snapshot, _ := io.ReadAll(down.Body)
	down.Body.Close()
	if down.StatusCode != http.StatusOK || len(snapshot) == 0 {
		t.Fatalf("binary download: %d (%d bytes)", down.StatusCode, len(snapshot))
	}
	shutdown()

	// The tiny decoded-graph budget below proves a cold store still serves:
	// fitting by ID forces a lazy decode, downloads stream the snapshot.
	base2, shutdown2 := startService(t, "-graph-store", dir, "-graph-cache-bytes", "1")
	defer shutdown2()

	// The graph survived the restart and fits by ID.
	fit, err := http.Post(base2+"/v1/fit", "application/json", strings.NewReader(
		fmt.Sprintf(`{"graph_id":%q}`, gr.ID)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(fit.Body)
	fit.Body.Close()
	if fit.StatusCode != http.StatusOK {
		t.Fatalf("fit by graph_id after restart: %d %s", fit.StatusCode, body)
	}

	// And the reloaded snapshot is byte-identical to the uploaded one.
	down2, err := http.Get(base2 + "/v1/graphs/" + gr.ID + "?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	snapshot2, _ := io.ReadAll(down2.Body)
	down2.Body.Close()
	if !bytes.Equal(snapshot, snapshot2) {
		t.Fatal("binary snapshot changed across restart")
	}
}

// TestServeJobsSurviveRestart drives the async job flow against the real
// command and kills/restarts it around running work: finished fit and sample
// job metadata must survive the restart (persisted next to the graph store),
// GET /v1/jobs/{id} must resolve on the new instance, and a job caught
// mid-run by the shutdown must come back in a terminal state rather than
// vanishing or wedging.
func TestServeJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	store := t.TempDir()
	base, shutdown := startService(t, "-graph-store", dir, "-store", store)

	// Upload an input graph, then fit it asynchronously.
	payload := `{"n":40,"w":0,"edges":[`
	edges := make([]string, 0, 80)
	for i := 0; i < 40; i++ {
		edges = append(edges, fmt.Sprintf("[%d,%d]", i, (i+1)%40), fmt.Sprintf("[%d,%d]", i, (i+7)%40))
	}
	payload += strings.Join(edges, ",") + `]}`
	up, err := http.Post(base+"/v1/graphs", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var gr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(up.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", up.StatusCode)
	}

	type jobBody struct {
		ID      string `json:"id"`
		Kind    string `json:"kind"`
		Status  string `json:"status"`
		ModelID string `json:"model_id"`
		Fit     *struct {
			ModelID string `json:"model_id"`
		} `json:"fit"`
	}
	submit := func(path, body string) jobBody {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jb jobBody
		if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted || jb.ID == "" {
			t.Fatalf("submit %s: %d %+v", path, resp.StatusCode, jb)
		}
		return jb
	}
	getJob := func(base, id string) (jobBody, int) {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jb jobBody
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
				t.Fatal(err)
			}
		}
		return jb, resp.StatusCode
	}
	waitDone := func(id string) jobBody {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			jb, code := getJob(base, id)
			if code != http.StatusOK {
				t.Fatalf("poll %s: %d", id, code)
			}
			switch jb.Status {
			case "done", "failed", "cancelled":
				return jb
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", id, jb.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	fitJob := submit("/v1/fit", fmt.Sprintf(`{"graph_id":%q,"epsilon":1.0,"seed":3,"async":true}`, gr.ID))
	fitDone := waitDone(fitJob.ID)
	if fitDone.Status != "done" || fitDone.Fit == nil || fitDone.Fit.ModelID == "" {
		t.Fatalf("fit job ended %+v", fitDone)
	}
	sampleJob := submit("/v1/sample", fmt.Sprintf(`{"id":%q,"async":true,"count":2,"seed":11}`, fitDone.Fit.ModelID))
	waitDone(sampleJob.ID)

	// A long-running batch that the shutdown will catch mid-run.
	midRun := submit("/v1/sample", fmt.Sprintf(`{"id":%q,"async":true,"count":500,"seed":1000}`, fitDone.Fit.ModelID))
	shutdown()

	base2, shutdown2 := startService(t, "-graph-store", dir, "-store", store)
	defer shutdown2()

	// Finished jobs resolve after the restart with their terminal metadata.
	restoredFit, code := getJob(base2, fitJob.ID)
	if code != http.StatusOK {
		t.Fatalf("fit job did not survive restart: %d", code)
	}
	if restoredFit.Kind != "fit" || restoredFit.Status != "done" ||
		restoredFit.Fit == nil || restoredFit.Fit.ModelID != fitDone.Fit.ModelID {
		t.Fatalf("restored fit job %+v, want model %s", restoredFit, fitDone.Fit.ModelID)
	}
	// And the model it names is still served (the model store persisted it).
	mresp, err := http.Get(base2 + "/v1/models/" + restoredFit.Fit.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("fitted model lost across restart: %d", mresp.StatusCode)
	}
	restoredSample, code := getJob(base2, sampleJob.ID)
	if code != http.StatusOK || restoredSample.Kind != "sample" || restoredSample.Status != "done" {
		t.Fatalf("sample job did not survive restart: %d %+v", code, restoredSample)
	}
	// The mid-run job either finished before the drain or was cancelled by
	// it; in both cases the restarted service must report a terminal state.
	restoredMid, code := getJob(base2, midRun.ID)
	if code != http.StatusOK {
		t.Fatalf("mid-run job left no record: %d", code)
	}
	switch restoredMid.Status {
	case "done", "failed", "cancelled":
	default:
		t.Fatalf("mid-run job restored in non-terminal state %q", restoredMid.Status)
	}
}

func TestServeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-parallelism", "257"},
	} {
		var buf strings.Builder
		var uerr usageError
		// Flags wrongly accepted start a server; stop it at once.
		args = append([]string{"-addr", "127.0.0.1:0"}, args...)
		if err := run(args, &buf, func(_ string, stop func()) { stop() }); !errors.As(err, &uerr) {
			t.Errorf("%v: err = %v, want a usage error (exit 2)", args, err)
		}
	}
}

// TestServeSweepsLeftoverTempFiles simulates a crash between staging a file
// and renaming it into place, in every store directory: after a restart the
// staged temp files are gone, while every stored file and a foreign file
// survive.
func TestServeSweepsLeftoverTempFiles(t *testing.T) {
	graphs, models := t.TempDir(), t.TempDir()
	dirs := []string{graphs, models, filepath.Join(graphs, "jobs")}
	base, shutdown := startService(t, "-graph-store", graphs, "-store", models)
	call := func(method, path, body string, want int) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d %v", method, path, resp.StatusCode, out)
		}
		return out
	}
	// Fill every directory: a graph snapshot and its metric bundle, a model
	// and its acceptance table, a finished job's record and the ID mark.
	gid := call("POST", "/v1/graphs", `{"n":6,"w":0,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}`, http.StatusCreated)["id"].(string)
	call("GET", "/v1/graphs/"+gid+"/metrics", "", http.StatusOK)
	job := call("POST", "/v1/fit", fmt.Sprintf(`{"graph_id":%q,"epsilon":1.0,"seed":3,"async":true}`, gid), http.StatusAccepted)["id"].(string)
	for deadline := time.Now().Add(time.Minute); call("GET", "/v1/jobs/"+job, "", http.StatusOK)["status"] != "done"; {
		if time.Now().After(deadline) {
			t.Fatalf("fit job %s did not finish", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutdown()

	want := make([][]string, len(dirs))
	for i, dir := range dirs {
		if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not ours"), 0o644); err != nil {
			t.Fatal(err)
		}
		want[i] = dirNames(t, dir)
		if _, err := atomicfile.Stage(dir, func(w io.Writer) error {
			_, err := io.WriteString(w, "written before the crash")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, shutdown2 := startService(t, "-graph-store", graphs, "-store", models)
	defer shutdown2()
	for i, dir := range dirs {
		if got := dirNames(t, dir); strings.Join(got, " ") != strings.Join(want[i], " ") {
			t.Errorf("%s after restart holds %v, want %v", dir, got, want[i])
		}
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
