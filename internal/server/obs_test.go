package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"wolves/internal/obs"
)

// setSampleN flips the process-global trace sampling for one test and
// returns the restore.
func setSampleN(t *testing.T, n int64) func() {
	t.Helper()
	prev := obs.DefaultTracer.SampleN()
	obs.DefaultTracer.SetSampleN(n)
	return func() { obs.DefaultTracer.SetSampleN(prev) }
}

// scrape fetches /metrics and returns every sample's value keyed by its
// series: the family name plus its rendered labels.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	status, body := do(t, ts, http.MethodGet, "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d %s", status, body)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestStatsBuildInfo pins the build identity and runtime state on
// /metrics: version and commit from the embedded build info, the
// toolchain, a live goroutine count. /metrics is the only stats surface:
// the old GET /v1/stats answers 404.
func TestStatsBuildInfo(t *testing.T) {
	ts, _ := bootRunServer(t)
	m := scrape(t, ts)
	var build string
	for series, v := range m {
		if strings.HasPrefix(series, "wolves_build_info{") && v == 1 {
			build = series
		}
	}
	// Test binaries carry no module version or VCS stamp; the labels
	// must still be present and non-empty ("unknown" fallbacks).
	for _, want := range []string{`commit="`, `goversion="go`, `version="`} {
		if !strings.Contains(build, want) || strings.Contains(build, want+`"`) {
			t.Fatalf("wolves_build_info lacks %s…: %q", want, build)
		}
	}
	if g := m["wolves_goroutines"]; g < 1 {
		t.Fatalf("wolves_goroutines = %v", g)
	}
	if status, body := do(t, ts, http.MethodGet, "/v1/stats", "", ""); status != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: %d %s, want 404", status, body)
	}
}

// TestMetricsEndpoint drives a real request through the instrumented
// mux and asserts /metrics serves Prometheus text exposition with the
// route counters, the latency histogram and the scrape-time collectors
// live.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := bootRunServer(t)
	if status, body := do(t, ts, http.MethodGet, "/v1/workflows", "", ""); status != http.StatusOK {
		t.Fatalf("warm request: %d %s", status, body)
	}
	status, body := do(t, ts, http.MethodGet, "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d %s", status, body)
	}
	for _, want := range []string{
		"# TYPE wolves_http_requests_total counter",
		`wolves_http_requests_total{code="2xx",route="GET /v1/workflows"}`,
		"# TYPE wolves_http_request_seconds histogram",
		`wolves_http_request_seconds_bucket{le="+Inf"}`,
		"wolves_http_request_seconds_count",
		`wolves_lineage_queries_total{level="audited"}`,
		"wolves_live_workflows 1",
		"wolves_goroutines",
		"wolves_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestTraceTailEndpoint turns sampling on, serves one request and reads
// it back from /debug/traces.
func TestTraceTailEndpoint(t *testing.T) {
	ts, _ := bootRunServer(t)
	restore := setSampleN(t, 1)
	defer restore()
	if status, _ := do(t, ts, http.MethodGet, "/v1/workflows", "", ""); status != http.StatusOK {
		t.Fatal("traced request failed")
	}
	status, body := do(t, ts, http.MethodGet, "/debug/traces?n=16", "", "")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", status, body)
	}
	var tail struct {
		SampleN int64 `json:"sample_n"`
		Spans   []struct {
			Component string `json:"component"`
			Name      string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatalf("trace tail is not JSON: %v\n%s", err, body)
	}
	if tail.SampleN != 1 {
		t.Fatalf("sample_n = %d", tail.SampleN)
	}
	found := false
	for _, sp := range tail.Spans {
		if sp.Component == "http" && sp.Name == "GET /v1/workflows" {
			found = true
		}
	}
	if !found {
		t.Fatalf("traced request not in tail: %s", body)
	}
}

// TestReadmeMetricsCatalogue holds the README's metrics table to what
// /metrics serves: every family the scrape declares with # TYPE must
// have a row, named in full, and every row must name a served family.
func TestReadmeMetricsCatalogue(t *testing.T) {
	ts, _ := bootRunServer(t)
	status, body := do(t, ts, http.MethodGet, "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	served := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			served[f[2]] = true
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| Metric | Kind | What it counts |"
	_, table, ok := strings.Cut(string(readme), header)
	if !ok {
		t.Fatalf("README has no %q table", header)
	}
	listed := map[string]bool{}
	for _, row := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cell := strings.Split(row, "|")[1]
		for _, quoted := range strings.Split(cell, "`")[1:] {
			name, _, _ := strings.Cut(quoted, "{")
			if strings.HasPrefix(name, "wolves_") {
				listed[name] = true
			}
		}
	}
	for name := range served {
		if !listed[name] {
			t.Errorf("/metrics serves %s; the README table lacks it", name)
		}
	}
	for name := range listed {
		if !served[name] {
			t.Errorf("the README table lists %s; /metrics does not serve it", name)
		}
	}
}
