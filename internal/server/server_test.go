package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"wolves/internal/core"
	"wolves/internal/engine"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

func newTestServer(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	eng := engine.New()
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)
	return eng, ts
}

// rawPair marshals a workflow and view into request-ready raw JSON.
func rawPair(t *testing.T, wf *workflow.Workflow, v *view.View) (json.RawMessage, json.RawMessage) {
	t.Helper()
	wfj, err := json.Marshal(wf)
	if err != nil {
		t.Fatal(err)
	}
	vj, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return wfj, vj
}

func postJSON(t *testing.T, url string, body any, dst any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// TestValidateRoundTripFigure1 pins the acceptance criterion: wolvesd
// round-trips the Figure 1 repository entry over HTTP with the same
// Report as the in-process path.
func TestValidateRoundTripFigure1(t *testing.T) {
	eng, ts := newTestServer(t)
	wf, v := repo.Figure1()

	want, err := eng.Validate(context.Background(), wf, v)
	if err != nil {
		t.Fatal(err)
	}

	wfj, vj := rawPair(t, wf, v)
	var got ValidateResponse
	resp := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Workflow: wfj, View: vj}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(got.Report, want) {
		t.Fatalf("HTTP report differs from in-process report:\nhttp: %+v\nproc: %+v", got.Report, want)
	}
	if got.Report.Sound {
		t.Fatal("figure 1 view must be unsound")
	}
}

// TestCorrectOverHTTP repairs Figure 1 over the wire and cross-checks
// against the in-process correction.
func TestCorrectOverHTTP(t *testing.T) {
	eng, ts := newTestServer(t)
	wf, v := repo.Figure1()
	wfj, vj := rawPair(t, wf, v)

	var got CorrectResponse
	resp := postJSON(t, ts.URL+"/v1/correct",
		CorrectRequest{Workflow: wfj, View: vj, Criterion: "strong"}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !got.Report.Sound {
		t.Fatalf("corrected view must be sound: %+v", got.Report)
	}
	if got.CompositesAfter <= got.CompositesBefore {
		t.Fatalf("correction must split: %d → %d", got.CompositesBefore, got.CompositesAfter)
	}
	// The corrected view decodes against the workflow and matches the
	// in-process correction composite-for-composite.
	corrected, err := view.DecodeJSON(wf, bytes.NewReader(got.CorrectedView))
	if err != nil {
		t.Fatal(err)
	}
	vc, err := eng.Correct(context.Background(), wf, v, core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.N() != vc.Corrected.N() {
		t.Fatalf("HTTP correction has %d composites, in-process %d", corrected.N(), vc.Corrected.N())
	}
	rep := soundness.ValidateView(eng.Oracle(wf), corrected)
	if !rep.Sound {
		t.Fatal("decoded corrected view must validate sound")
	}
}

// TestBatchEndpoint mixes validate and correct jobs, including a broken
// one, and checks per-job isolation plus oracle-cache reuse.
func TestBatchEndpoint(t *testing.T) {
	eng, ts := newTestServer(t)
	wf, v := repo.Figure1()
	wfj, vj := rawPair(t, wf, v)

	req := BatchRequest{Jobs: []BatchJob{
		{Op: "validate", Workflow: wfj, View: vj},
		{Op: "correct", Workflow: wfj, View: vj, Criterion: "weak"},
		{Op: "nonsense", Workflow: wfj, View: vj},
		{Op: "validate", Workflow: wfj, View: vj},
	}}
	var got BatchResponse
	resp := postJSON(t, ts.URL+"/v1/batch", req, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got.Results) != 4 {
		t.Fatalf("got %d results", len(got.Results))
	}
	if got.Results[0].Report == nil || got.Results[0].Report.Sound {
		t.Fatalf("job 0: %+v", got.Results[0])
	}
	if got.Results[1].Correct == nil || !got.Results[1].Correct.Report.Sound {
		t.Fatalf("job 1: %+v", got.Results[1])
	}
	if got.Results[2].Error == nil || got.Results[2].Error.Code != engine.ErrBadInput {
		t.Fatalf("job 2: %+v", got.Results[2])
	}
	if got.Results[3].Report == nil {
		t.Fatalf("job 3: %+v", got.Results[3])
	}
	// All four jobs target one workflow: exactly one closure build.
	if s := eng.CacheStats(); s.Builds != 1 {
		t.Fatalf("batch over one workflow must build once: %+v", s)
	}
}

// TestHTTPErrors exercises status mapping and malformed input.
func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	wf, v := repo.Figure1()
	wfj, vj := rawPair(t, wf, v)

	// Malformed body.
	resp, err := http.Post(ts.URL+"/v1/validate", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d", resp.StatusCode)
	}

	// Missing view.
	var er struct {
		Error *engine.Error `json:"error"`
	}
	resp = postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Workflow: wfj}, &er)
	if resp.StatusCode != http.StatusBadRequest || er.Error == nil || er.Error.Code != engine.ErrBadInput {
		t.Fatalf("missing view: status=%d body=%+v", resp.StatusCode, er)
	}

	// Unknown criterion.
	resp = postJSON(t, ts.URL+"/v1/correct",
		CorrectRequest{Workflow: wfj, View: vj, Criterion: "fastest"}, &er)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad criterion: status = %d", resp.StatusCode)
	}

	// Method not allowed on the POST-only routes.
	getResp, err := http.Get(ts.URL + "/v1/validate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/validate: status = %d", getResp.StatusCode)
	}
}

// TestHealthz checks the daemon's liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz body = %q", body)
	}
}
