package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/repo"
	"wolves/internal/runs"
)

// bootRunServer starts an httptest server with the Figure 1 workflow
// and fig1b view registered.
func bootRunServer(t *testing.T) (*httptest.Server, *http.Client) {
	t.Helper()
	srv := New(engine.New())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	wf, v := repo.Figure1()
	wfRaw, err := json.Marshal(wf)
	if err != nil {
		t.Fatal(err)
	}
	vRaw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"workflow": json.RawMessage(wfRaw),
		"views":    []map[string]any{{"id": "fig1b", "view": json.RawMessage(vRaw)}},
	})
	status, resp := do(t, ts, http.MethodPut, "/v1/workflows/phylo", string(body), "")
	if status != http.StatusOK {
		t.Fatalf("register: %d %s", status, resp)
	}
	return ts, ts.Client()
}

// do issues a request and returns status and body.
func do(t *testing.T, ts *httptest.Server, method, path, body, contentType string) (int, string) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// figure1HTTPRun is the Figure 1 execution trace in implicit-invocation
// form: one artifact a<i> per task, used edges along the workflow edges.
func figure1HTTPRun(runID string) string {
	wf, _ := repo.Figure1()
	doc := map[string]any{"run": runID}
	var arts, used []map[string]string
	for i := 0; i < wf.N(); i++ {
		arts = append(arts, map[string]string{"id": "a" + wf.Task(i).ID, "generated_by": wf.Task(i).ID})
	}
	for _, e := range wf.Edges() {
		used = append(used, map[string]string{"process": e[1], "artifact": "a" + e[0]})
	}
	doc["artifacts"], doc["used"] = arts, used
	raw, _ := json.Marshal(doc)
	return string(raw)
}

// TestRunLineageLevelsHTTP is the PR's acceptance criterion at the HTTP
// level: level=audited on the Figure 1(b) unsound view reports
// sound:false and lists composite 14 as spurious provenance of
// composite 18's output (artifact a8), while level=exact omits task 3
// entirely.
func TestRunLineageLevelsHTTP(t *testing.T) {
	ts, _ := bootRunServer(t)

	status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", figure1HTTPRun("r1"), "")
	if status != http.StatusOK || !strings.Contains(body, `"run":"r1"`) {
		t.Fatalf("ingest: %d %s", status, body)
	}

	// level=exact: the provenance of a8 is a1,a2,a6,a7 — no task 3.
	status, body = do(t, ts, http.MethodGet,
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=exact", "", "")
	if status != http.StatusOK {
		t.Fatalf("exact lineage: %d %s", status, body)
	}
	var exact runs.Answer
	if err := json.Unmarshal([]byte(body), &exact); err != nil {
		t.Fatal(err)
	}
	for _, task := range exact.Tasks {
		if task == "3" {
			t.Fatalf("exact lineage must omit task 3: %s", body)
		}
	}
	if len(exact.Tasks) != 4 || exact.Sound != nil || len(exact.Spurious) != 0 {
		t.Fatalf("exact lineage = %s", body)
	}

	// level=audited: sound:false, composite 14 spurious.
	status, body = do(t, ts, http.MethodGet,
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=audited&view=fig1b", "", "")
	if status != http.StatusOK {
		t.Fatalf("audited lineage: %d %s", status, body)
	}
	if !strings.Contains(body, `"sound":false`) {
		t.Fatalf("audited lineage must report sound:false: %s", body)
	}
	if !strings.Contains(body, `"spurious_composites":["14"]`) {
		t.Fatalf("audited lineage must list composite 14 as spurious: %s", body)
	}
	if !strings.Contains(body, `"view_sound":false`) || !strings.Contains(body, `"spurious_tasks":["3"]`) {
		t.Fatalf("audited flags: %s", body)
	}

	// level=view carries the view answer (with the false positive) and
	// the view_sound flag, but no per-query delta.
	status, body = do(t, ts, http.MethodGet,
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=view&view=fig1b", "", "")
	if status != http.StatusOK || !strings.Contains(body, `"a3"`) ||
		strings.Contains(body, "spurious_composites") {
		t.Fatalf("view lineage: %d %s", status, body)
	}

	// Witness (why-provenance) over the run's own edges.
	status, body = do(t, ts, http.MethodGet,
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&witness=1", "", "")
	if status != http.StatusOK || !strings.Contains(body, `"wasGeneratedBy"`) {
		t.Fatalf("witness lineage: %d %s", status, body)
	}
}

func TestRunEndpointsHTTP(t *testing.T) {
	ts, _ := bootRunServer(t)
	ingested0 := obs.MIngestRuns.Value()
	if status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", figure1HTTPRun("r1"), ""); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}

	// NDJSON ingestion by content type.
	nd := "{\"run\":\"nd\"}\n{\"artifact\":{\"id\":\"x\",\"generated_by\":\"1\"}}\n"
	status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", nd, "application/x-ndjson")
	if status != http.StatusOK || !strings.Contains(body, `"run":"nd"`) {
		t.Fatalf("ndjson ingest: %d %s", status, body)
	}

	// List and get.
	status, body = do(t, ts, http.MethodGet, "/v1/workflows/phylo/runs", "", "")
	if status != http.StatusOK || !strings.Contains(body, `"count":2`) {
		t.Fatalf("list: %d %s", status, body)
	}
	status, body = do(t, ts, http.MethodGet, "/v1/workflows/phylo/runs/nd", "", "")
	if status != http.StatusOK || !strings.Contains(body, `"artifacts":1`) {
		t.Fatalf("get: %d %s", status, body)
	}

	// Batch query endpoint.
	q := `{"queries":[
		{"run":"r1","artifact":"a8","level":"exact"},
		{"run":"r1","artifact":"a8","level":"audited","view":"fig1b"},
		{"run":"r1","artifact":"ghost"}]}`
	status, body = do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs/query", q, "")
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var batch RunQueryResponse
	if err := json.Unmarshal([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 || batch.Results[0].Answer == nil ||
		batch.Results[1].Answer == nil || batch.Results[1].Answer.Sound == nil ||
		batch.Results[2].Err == nil || batch.Results[2].Err.Code != engine.ErrUnknownArtifact {
		t.Fatalf("batch results: %s", body)
	}

	// Registry population and run residency on /metrics, versions and
	// views on the workflow listing.
	m := scrape(t, ts)
	if m["wolves_live_workflows"] != 1 || m["wolves_runs_resident"] != 2 {
		t.Fatalf("metrics: live_workflows=%v runs_resident=%v",
			m["wolves_live_workflows"], m["wolves_runs_resident"])
	}
	if got := obs.MIngestRuns.Value() - ingested0; got != 2 {
		t.Fatalf("wolves_ingest_runs_total grew by %d, want 2", got)
	}
	status, body = do(t, ts, http.MethodGet, "/v1/workflows", "", "")
	var list WorkflowListResponse
	if err := json.Unmarshal([]byte(body), &list); status != http.StatusOK || err != nil {
		t.Fatalf("list: %d %s %v", status, body, err)
	}
	if len(list.Workflows) != 1 || list.Workflows[0].Version != 1 || len(list.Workflows[0].Views) != 1 {
		t.Fatalf("list: %s", body)
	}
}

// TestRunErrorStatusesHTTP pins the wire mapping: ingestion edge cases
// are 422 invalid_trace, missing resources are 404, bad params 400.
func TestRunErrorStatusesHTTP(t *testing.T) {
	ts, _ := bootRunServer(t)
	if status, _ := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", figure1HTTPRun("r1"), ""); status != http.StatusOK {
		t.Fatal("seed ingest failed")
	}
	cases := []struct {
		name, method, path, body, ct string
		wantStatus                   int
		wantCode                     string
	}{
		{"unknown task", "POST", "/v1/workflows/phylo/runs",
			`{"run":"r","artifacts":[{"id":"a","generated_by":"ghost"}]}`, "",
			http.StatusUnprocessableEntity, "invalid_trace"},
		{"duplicate artifact", "POST", "/v1/workflows/phylo/runs",
			`{"run":"r","artifacts":[{"id":"a","generated_by":"1"},{"id":"a","generated_by":"2"}]}`, "",
			http.StatusUnprocessableEntity, "invalid_trace"},
		{"dangling used edge", "POST", "/v1/workflows/phylo/runs",
			`{"run":"r","artifacts":[{"id":"a","generated_by":"1"}],"used":[{"process":"2","artifact":"ghost"}]}`, "",
			http.StatusUnprocessableEntity, "invalid_trace"},
		{"empty run", "POST", "/v1/workflows/phylo/runs", `{"run":"r"}`, "",
			http.StatusUnprocessableEntity, "invalid_trace"},
		{"torn ndjson", "POST", "/v1/workflows/phylo/runs",
			"{\"run\":\"r\"}\n{\"artifact\":{\"id\":\"a\",\"gen", "application/x-ndjson",
			http.StatusUnprocessableEntity, "invalid_trace"},
		{"unknown workflow", "POST", "/v1/workflows/ghost/runs", `{"run":"r"}`, "",
			http.StatusNotFound, "unknown_workflow"},
		{"unknown run", "GET", "/v1/workflows/phylo/runs/ghost/lineage?artifact=a8", "", "",
			http.StatusNotFound, "unknown_run"},
		{"unknown artifact", "GET", "/v1/workflows/phylo/runs/r1/lineage?artifact=ghost", "", "",
			http.StatusNotFound, "unknown_artifact"},
		{"unknown view", "GET", "/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=view&view=ghost", "", "",
			http.StatusNotFound, "unknown_view"},
		{"bad level", "GET", "/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=big", "", "",
			http.StatusBadRequest, "bad_input"},
		{"missing artifact", "GET", "/v1/workflows/phylo/runs/r1/lineage", "", "",
			http.StatusBadRequest, "bad_input"},
		{"empty batch", "POST", "/v1/workflows/phylo/runs/query", `{"queries":[]}`, "",
			http.StatusBadRequest, "bad_input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, ts, tc.method, tc.path, tc.body, tc.ct)
			if status != tc.wantStatus || !strings.Contains(body, tc.wantCode) {
				t.Fatalf("%s %s = %d %s (want %d %s)", tc.method, tc.path, status, body, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestLineageStreamingBytes pins the streaming serve path to the exact
// bytes writeJSON's reflection encoder would have produced: decoding
// the body and re-encoding it through encoding/json must reproduce the
// wire bytes, trailing newline included — for the single endpoint and
// for the batch endpoint.
func TestLineageStreamingBytes(t *testing.T) {
	ts, _ := bootRunServer(t)
	if status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", figure1HTTPRun("r1"), ""); status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	for _, path := range []string{
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8",
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=view&view=fig1b",
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&level=audited&view=fig1b&witness=1",
		"/v1/workflows/phylo/runs/r1/lineage?artifact=a8&direction=descendants",
	} {
		status, body := do(t, ts, http.MethodGet, path, "", "")
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", path, status, body)
		}
		if !strings.HasSuffix(body, "\n") {
			t.Fatalf("%s: body must end with newline (json.Encoder parity)", path)
		}
		var ans runs.Answer
		if err := json.Unmarshal([]byte(body), &ans); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want, err := json.Marshal(&ans)
		if err != nil {
			t.Fatal(err)
		}
		if body != string(want)+"\n" {
			t.Fatalf("%s: streamed bytes diverge from encoding/json\n got: %q\nwant: %q", path, body, want)
		}
	}

	// Batch: one good query, one per-query error.
	req := `{"queries":[{"run":"r1","artifact":"a8"},{"run":"r1","artifact":"nope"}]}`
	status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs/query", req, "application/json")
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var qr RunQueryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 2 || qr.Results[0].Answer == nil || qr.Results[1].Err == nil {
		t.Fatalf("batch results = %s", body)
	}
	want, err := json.Marshal(&qr)
	if err != nil {
		t.Fatal(err)
	}
	if body != string(want)+"\n" {
		t.Fatalf("batch: streamed bytes diverge\n got: %q\nwant: %q", body, want)
	}
}

// TestStatsLabelCounters checks /metrics exposes the label-index
// counters: the registered workflow's label pair was built, the attached
// view got its quotient labels built, and the footprint gauge is live.
func TestStatsLabelCounters(t *testing.T) {
	ts, _ := bootRunServer(t)
	m := scrape(t, ts)
	if m["wolves_label_index_builds_total"] < 1 || m["wolves_label_index_view_builds_total"] < 1 {
		t.Fatalf("label builds: %v / %v",
			m["wolves_label_index_builds_total"], m["wolves_label_index_view_builds_total"])
	}
	if m["wolves_label_index_memory_bytes"] <= 0 {
		t.Fatalf("label footprint = %v", m["wolves_label_index_memory_bytes"])
	}
	if m["wolves_label_index_patches_total"] != 0 || m["wolves_label_index_rebuilds_total"] != 0 {
		t.Fatalf("fresh registry must have no patches/rebuilds: %v / %v",
			m["wolves_label_index_patches_total"], m["wolves_label_index_rebuilds_total"])
	}
}

// TestIngestNDJSONLineCapHTTP pins the over-long-line contract at the
// HTTP layer: a single NDJSON line longer than the ingest line cap is a
// typed bad_input, status 400. The default body cap equals the line cap
// (the compile-time tie in runs.go), so the body cap is raised here to
// let the line reach the ingest layer.
func TestIngestNDJSONLineCapHTTP(t *testing.T) {
	srv := New(engine.New(), WithMaxBodyBytes(4*runs.MaxNDJSONLineBytes))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	wf, _ := repo.Figure1()
	wfRaw, _ := json.Marshal(wf)
	body, _ := json.Marshal(map[string]any{"workflow": json.RawMessage(wfRaw)})
	if status, resp := do(t, ts, http.MethodPut, "/v1/workflows/phylo", string(body), ""); status != http.StatusOK {
		t.Fatalf("register: %d %s", status, resp)
	}

	line := strings.Repeat("a", runs.MaxNDJSONLineBytes+2)
	status, resp := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", line, "application/x-ndjson")
	if status != http.StatusBadRequest || !strings.Contains(resp, "bad_input") ||
		!strings.Contains(resp, "line cap") {
		t.Fatalf("over-long NDJSON line: %d %.200s", status, resp)
	}
	if status, resp := do(t, ts, http.MethodGet, "/v1/workflows/phylo/runs", "", ""); status != http.StatusOK ||
		!strings.Contains(resp, `"count":0`) {
		t.Fatalf("rejected stream must leave no runs: %d %s", status, resp)
	}
}

// TestIngestBatchHTTP covers the JSON-array batch ingest: one POST, all
// documents validated and journaled as a burst, RunListResponse back;
// a malformed array is a 422 with nothing ingested.
func TestIngestBatchHTTP(t *testing.T) {
	ts, _ := bootRunServer(t)

	batch := "[" + figure1HTTPRun("b1") + "," + figure1HTTPRun("b2") + "," + figure1HTTPRun("b3") + "]"
	status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", batch, "application/json")
	if status != http.StatusOK {
		t.Fatalf("batch ingest: %d %s", status, body)
	}
	var lr RunListResponse
	if err := json.Unmarshal([]byte(body), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Workflow != "phylo" || lr.Count != 3 || len(lr.Runs) != 3 || lr.Runs[1].Run != "b2" {
		t.Fatalf("batch response = %s", body)
	}

	// All-or-nothing: a batch with one bad document ingests none.
	bad := "[" + figure1HTTPRun("b4") + `,{"run":"b5"}]`
	if status, resp := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs", bad, "application/json"); status != http.StatusUnprocessableEntity {
		t.Fatalf("bad batch: %d %s", status, resp)
	}
	if status, resp := do(t, ts, http.MethodGet, "/v1/workflows/phylo/runs", "", ""); status != http.StatusOK ||
		!strings.Contains(resp, `"count":3`) {
		t.Fatalf("failed batch must ingest nothing: %d %s", status, resp)
	}

	// A lineage query over a batch-ingested run answers normally.
	if status, resp := do(t, ts, http.MethodGet, "/v1/workflows/phylo/runs/b3/lineage?artifact=a8", "", ""); status != http.StatusOK {
		t.Fatalf("lineage over batch run: %d %s", status, resp)
	}
}
