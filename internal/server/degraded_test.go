package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wolves/internal/engine"
	"wolves/internal/runs"
	"wolves/internal/storage"
	"wolves/internal/storage/vfs"
)

// bootDurableServer starts an httptest server whose registry journals to
// a Store running over a FaultFS, so tests can break the disk underneath
// the daemon and watch it degrade, shed writes, keep serving queries,
// and auto-recover — the wire-level face of the robustness tentpole.
func bootDurableServer(t *testing.T) (*httptest.Server, *Server, *vfs.FaultFS) {
	t.Helper()
	ffs := vfs.NewFault(vfs.OS())
	eng := engine.New()
	reg := engine.NewRegistry(eng,
		engine.WithProbeBackoff(2*time.Millisecond, 20*time.Millisecond))
	runStore := runs.New(reg, runs.WithWorkers(eng.Workers()))
	// SnapshotEvery 1 routes every commit through the snapshot tmp+rename
	// path, the site the tests fault.
	store, err := storage.Open(t.TempDir(), storage.Options{
		FS: ffs, Fsync: storage.FsyncNone, SnapshotEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	store.SetRunProvider(runStore)
	reg.SetJournal(store)
	runStore.SetJournal(store)

	srv := New(eng, WithRegistry(reg), WithRunStore(runStore))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	wf, v := preFigure1(t)
	wfj, vj := rawPair(t, wf, v)
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/workflows/phylo", RegisterRequest{
		Workflow: wfj,
		Views:    []RegisterView{{View: vj}},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	return ts, srv, ffs
}

// TestDegradedModeOverHTTP drives the full outage arc over the wire:
// healthy /readyz → snapshot rename faults → mutation comes back 503
// degraded with Retry-After → queries serve byte-identical reports and
// ingests are rejected atomically → faults clear → /readyz flips back
// healthy and writes flow, with the transition counted in /readyz.
func TestDegradedModeOverHTTP(t *testing.T) {
	ts, _, ffs := bootDurableServer(t)
	base := ts.URL + "/v1/workflows/phylo"

	if resp := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while healthy: %d", resp.StatusCode)
	}

	// Break every rename: the snapshot tmp file can be written but never
	// published, which (after the store's capped retries) fails the store.
	ffs.Deny(vfs.OpRename, vfs.Fault{})
	var errBody errorResponse
	resp := doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Edges: [][2]string{{"3", "4"}}}, &errBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate on broken disk: %d, want 503", resp.StatusCode)
	}
	if errBody.Error == nil || errBody.Error.Code != engine.ErrDegraded {
		t.Fatalf("mutate error body: %+v", errBody.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 degraded response missing Retry-After")
	}

	// /readyz flips to 503 degraded (load balancers stop routing) while
	// /healthz stays 200 (the process is alive and serving reads).
	var ready ReadyResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready)
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != engine.HealthDegraded {
		t.Fatalf("readyz while degraded: %d %+v", resp.StatusCode, ready)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded readyz missing Retry-After")
	}
	if resp = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded: %d", resp.StatusCode)
	}

	// Queries keep serving from memory, byte-identical across reads: the
	// degraded registry never serves wrong (or flapping) lineage.
	readReport := func() string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/views/fig1b/validate", nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		raw, err := io.ReadAll(r.Body)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("validate while degraded: %d %v", r.StatusCode, err)
		}
		return string(raw)
	}
	first := readReport()
	for i := 0; i < 3; i++ {
		if got := readReport(); got != first {
			t.Fatalf("degraded reads diverge:\n%s\nvs\n%s", first, got)
		}
	}

	// Writes are gated before touching state: mutation, ingest, delete all
	// come back typed degraded, and no partial run is recorded.
	resp = doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Edges: [][2]string{{"4", "5"}}}, &errBody)
	if resp.StatusCode != http.StatusServiceUnavailable || errBody.Error.Code != engine.ErrDegraded {
		t.Fatalf("gated mutate: %d %+v", resp.StatusCode, errBody.Error)
	}
	status, body := do(t, ts, http.MethodPost, base[len(ts.URL):]+"/runs",
		`{"run":"r1","artifacts":[{"id":"a1","generated_by":"1"}]}`, "")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Fatalf("ingest while degraded: %d %s", status, body)
	}
	status, body = do(t, ts, http.MethodGet, base[len(ts.URL):]+"/runs", "", "")
	if status != http.StatusOK || !strings.Contains(body, `"count":0`) {
		t.Fatalf("degraded ingest left a partial run: %d %s", status, body)
	}

	// Heal the disk: the probe loop reopens the journal, resyncs, and the
	// daemon advertises ready again — no restart, no operator.
	ffs.Allow(vfs.OpRename)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp = doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered: %d %+v", resp.StatusCode, ready)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Writes flow again and the outage is visible in /readyz.
	resp = doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Edges: [][2]string{{"4", "5"}}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate after recovery: %d", resp.StatusCode)
	}
	status, body = do(t, ts, http.MethodPost, base[len(ts.URL):]+"/runs",
		`{"run":"r1","artifacts":[{"id":"a1","generated_by":"1"}]}`, "")
	if status != http.StatusOK {
		t.Fatalf("ingest after recovery: %d %s", status, body)
	}
	var after ReadyResponse
	if resp = doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &after); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after the outage: %d", resp.StatusCode)
	}
	if after.Status != engine.HealthHealthy || after.Health.Degradations != 1 ||
		after.Health.Recoveries != 1 || after.Health.Probes == 0 || after.Health.LastError == "" {
		t.Fatalf("readyz health after the outage: %+v", after)
	}
}

// TestReadyzDraining pins the shutdown signal: StartDraining flips
// /readyz to 503 "draining" while request handlers keep working.
func TestReadyzDraining(t *testing.T) {
	srv := New(engine.New())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if resp := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	srv.StartDraining()
	var ready ReadyResponse
	resp := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &ready)
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != "draining" {
		t.Fatalf("readyz while draining: %d %+v", resp.StatusCode, ready)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}
	if resp = doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
}

// TestIngestAdmissionControl saturates the ingest semaphore and expects
// the next ingest to be shed with 503 overloaded + Retry-After instead
// of queueing.
func TestIngestAdmissionControl(t *testing.T) {
	srv := New(engine.New(), WithIngestConcurrency(1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	wf, v := preFigure1(t)
	wfj, vj := rawPair(t, wf, v)
	resp := doJSON(t, http.MethodPut, ts.URL+"/v1/workflows/phylo", RegisterRequest{
		Workflow: wfj, Views: []RegisterView{{View: vj}},
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d", resp.StatusCode)
	}

	// Hold the only slot, as a stuck in-flight ingest would.
	srv.ingestSem <- struct{}{}
	status, body := do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs",
		`{"run":"r1","artifacts":[{"id":"a1","generated_by":"1"}]}`, "")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded") {
		t.Fatalf("saturated ingest: %d %s", status, body)
	}
	<-srv.ingestSem
	status, body = do(t, ts, http.MethodPost, "/v1/workflows/phylo/runs",
		`{"run":"r1","artifacts":[{"id":"a1","generated_by":"1"}]}`, "")
	if status != http.StatusOK {
		t.Fatalf("ingest after slot freed: %d %s", status, body)
	}
}

// errAfterReader yields its prefix, then fails with a transport error —
// a client that died mid-upload.
type errAfterReader struct {
	data []byte
	off  int
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, errors.New("connection reset mid-stream")
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestNDJSONMidStreamReadError injects a read failure halfway through an
// NDJSON upload and requires atomic ingest-or-nothing: a 4xx reply and
// zero runs recorded.
func TestNDJSONMidStreamReadError(t *testing.T) {
	srv := New(engine.New())
	handler := srv.Handler()
	wf, v := preFigure1(t)
	wfj, vj := rawPair(t, wf, v)
	regBody, err := json.Marshal(RegisterRequest{Workflow: wfj, Views: []RegisterView{{View: vj}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/workflows/phylo",
		strings.NewReader(string(regBody))))
	if rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}

	// Two complete lines arrive, then the stream dies.
	nd := "{\"run\":\"r1\"}\n{\"artifact\":{\"id\":\"a1\",\"generated_by\":\"1\"}}\n"
	req := httptest.NewRequest(http.MethodPost, "/v1/workflows/phylo/runs",
		io.NopCloser(&errAfterReader{data: []byte(nd)}))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad_input") {
		t.Fatalf("mid-stream read error: %d %s", rec.Code, rec.Body.String())
	}

	// Nothing was ingested: the accumulate-then-commit ingest leaves no
	// partial run behind a failed stream.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workflows/phylo/runs", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"count":0`) {
		t.Fatalf("partial run after failed stream: %d %s", rec.Code, rec.Body.String())
	}

	// The same ingest with an intact stream succeeds — the trace itself
	// was never the problem.
	req = httptest.NewRequest(http.MethodPost, "/v1/workflows/phylo/runs", strings.NewReader(nd))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("intact re-ingest: %d %s", rec.Code, rec.Body.String())
	}
}
