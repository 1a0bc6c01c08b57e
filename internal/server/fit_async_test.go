package server

// Tests for the asynchronous fit flow: POST /v1/fit with async:true, and the
// acceptance criterion that an async fit registers the same
// content-addressed model as the synchronous fit.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"agmdp/internal/jobs"
)

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal status.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr jobResponse
		decode(t, resp, &jr)
		if jr.Status.Finished() {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %q", id, jr.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAsyncFitMatchesSynchronousFit(t *testing.T) {
	ts, _ := newV1TestServer(t)
	graphID := uploadBinary(t, ts, testUploadGraph(3))

	resp := postBody(t, ts.URL+"/v1/fit", "application/json",
		[]byte(fmt.Sprintf(`{"graph_id":%q,"epsilon":1.0,"seed":5}`, graphID)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync fit: %d", resp.StatusCode)
	}
	var sync fitResponse
	decode(t, resp, &sync)

	// The async fit must register the identical content address.
	resp = postBody(t, ts.URL+"/v1/fit", "application/json",
		[]byte(fmt.Sprintf(`{"graph_id":%q,"epsilon":1.0,"seed":5,"async":true}`, graphID)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async fit: %d", resp.StatusCode)
	}
	var accepted jobResponse
	decode(t, resp, &accepted)
	if accepted.ID == "" || accepted.Kind != jobs.KindFit {
		t.Fatalf("async fit returned %+v", accepted.Info)
	}
	if accepted.GraphID != graphID {
		t.Fatalf("job echoes graph %q, want %q", accepted.GraphID, graphID)
	}

	final := pollJob(t, ts, accepted.ID)
	if final.Status != jobs.StatusDone || final.Fit == nil {
		t.Fatalf("async fit ended %+v", final.Info)
	}
	if final.Fit.ModelID != sync.ID {
		t.Fatalf("async fit registered %s, sync fit is %s", final.Fit.ModelID, sync.ID)
	}

	// The registered model serves immediately.
	mresp, err := http.Get(ts.URL + "/v1/models/" + final.Fit.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("fitted model not served: %d", mresp.StatusCode)
	}
}

func TestFitJobViaJobsEndpoint(t *testing.T) {
	ts, _ := newV1TestServer(t)
	graphID := uploadBinary(t, ts, testUploadGraph(4))

	resp := postBody(t, ts.URL+"/v1/fit", "application/json",
		[]byte(fmt.Sprintf(`{"graph_id":%q,"epsilon":0.5,"seed":2,"async":true}`, graphID)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit job submit: %d", resp.StatusCode)
	}
	var accepted jobResponse
	decode(t, resp, &accepted)
	final := pollJob(t, ts, accepted.ID)
	if final.Status != jobs.StatusDone || final.Fit == nil || final.Fit.ModelID == "" {
		t.Fatalf("fit job ended %+v", final.Info)
	}
	if final.ModelID != final.Fit.ModelID {
		t.Fatalf("listing model ID %q differs from fit result %q", final.ModelID, final.Fit.ModelID)
	}

	// An async sample batch against the freshly fitted model works end to
	// end, and the listing shows both kinds.
	resp = postBody(t, ts.URL+"/v1/sample", "application/json",
		[]byte(fmt.Sprintf(`{"id":%q,"async":true,"count":2,"seed":7}`, final.Fit.ModelID)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sample job submit: %d", resp.StatusCode)
	}
	var sample jobResponse
	decode(t, resp, &sample)
	if got := pollJob(t, ts, sample.ID); got.Status != jobs.StatusDone {
		t.Fatalf("sample job after fit job ended %v", got.Status)
	}

	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list listJobsResponse
	decode(t, lresp, &list)
	kinds := map[jobs.Kind]int{}
	for _, info := range list.Jobs {
		kinds[info.Kind]++
	}
	if kinds[jobs.KindFit] != 1 || kinds[jobs.KindSample] != 1 {
		t.Fatalf("job listing kinds %v, want one fit and one sample", kinds)
	}
}

func TestFitJobValidation(t *testing.T) {
	ts, _ := newV1TestServer(t)
	graphID := uploadBinary(t, ts, testUploadGraph(5))

	cases := []struct {
		name string
		body string
		want int
	}{
		{"async fit with two inputs", fmt.Sprintf(`{"graph_id":%q,"dataset":{"name":"lastfm"},"async":true}`, graphID), http.StatusBadRequest},
		{"async fit with unknown graph", `{"graph_id":"feedfacefeedfacefeedfacefeedface","async":true}`, http.StatusNotFound},
		{"async fit with negative epsilon", fmt.Sprintf(`{"graph_id":%q,"epsilon":-1,"async":true}`, graphID), http.StatusBadRequest},
		{"async fit with unknown model", fmt.Sprintf(`{"graph_id":%q,"model":"nope","async":true}`, graphID), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postBody(t, ts.URL+"/v1/fit", "application/json", []byte(tc.body))
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}

	// A private TCL fit submits fine but fails as a job (no DP estimator).
	resp := postBody(t, ts.URL+"/v1/fit", "application/json",
		[]byte(fmt.Sprintf(`{"graph_id":%q,"epsilon":1.0,"model":"tcl","async":true}`, graphID)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async TCL fit submit: %d", resp.StatusCode)
	}
	var accepted jobResponse
	decode(t, resp, &accepted)
	final := pollJob(t, ts, accepted.ID)
	if final.Status != jobs.StatusFailed || final.Fit == nil || !strings.Contains(final.Fit.Error, "differentially private") {
		b, _ := json.Marshal(final)
		t.Fatalf("async private TCL fit ended %s", b)
	}
}
