package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"wolves/internal/storage"
	"wolves/internal/storage/vfs"
)

// TestRunBadAddr: an unusable listen address must surface as an error,
// not a hang.
func TestRunBadAddr(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "256.0.0.1:http"}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected listen error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return on a bad address")
	}
}

// TestRunServesAndShutsDown boots the daemon on a free port, hits
// /healthz, then delivers SIGTERM and expects a clean drain.
func TestRunServesAndShutsDown(t *testing.T) {
	// Reserve a free port, then hand its address to the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-cache", "4", "-optimal-timeout", "100ms"})
	}()

	healthy := false
	for i := 0; i < 100; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			healthy = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !healthy {
		t.Fatal("daemon never became healthy")
	}

	// SIGTERM is caught by signal.NotifyContext inside run, which drains
	// and returns nil; the test process itself is unaffected while the
	// handler is registered.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// bootDaemon starts the daemon with extra flags on a free port and waits
// for /healthz; it returns the base URL and the run() result channel.
func bootDaemon(t *testing.T, extra ...string) (string, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	done := make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", addr}, extra...)) }()
	for i := 0; i < 150; i++ {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return "http://" + addr, done
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
	return "", nil
}

// stopDaemon delivers SIGTERM and waits for a clean exit.
func stopDaemon(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// httpDo issues one request and returns the body.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestDurableRestartPreservesRegistry: register and mutate a workflow,
// SIGTERM the daemon, boot a fresh one on the same -data-dir, and the
// registry must come back — same version, same maintained report.
func TestDurableRestartPreservesRegistry(t *testing.T) {
	dir := t.TempDir()

	base, done := bootDaemon(t, "-data-dir", dir, "-fsync", "none")
	status, body := httpDo(t, http.MethodPut, base+"/v1/workflows/demo", `{
		"workflow": {"name":"demo","tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"]]},
		"views": [{"id":"v","view":{"name":"v","workflow":"demo","composites":[
			{"id":"ab","members":["a","b"]},{"id":"cc","members":["c"]}]}}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	status, body = httpDo(t, http.MethodPost, base+"/v1/workflows/demo/mutate",
		`{"edges": [["b","c"]], "tasks": [{"id":"d"}]}`)
	if status != http.StatusOK || !strings.Contains(body, `"version":2`) {
		t.Fatalf("mutate: %d %s", status, body)
	}
	_, wantReport := httpDo(t, http.MethodPost, base+"/v1/workflows/demo/views/v/validate", "")
	stopDaemon(t, done)

	base, done = bootDaemon(t, "-data-dir", dir, "-fsync", "none")
	defer stopDaemon(t, done)
	status, body = httpDo(t, http.MethodGet, base+"/v1/workflows", "")
	if status != http.StatusOK || !strings.Contains(body, `"count":1`) || !strings.Contains(body, `"demo"`) {
		t.Fatalf("list after restart: %d %s", status, body)
	}
	status, body = httpDo(t, http.MethodGet, base+"/v1/workflows/demo", "")
	if status != http.StatusOK || !strings.Contains(body, `"version":2`) {
		t.Fatalf("get after restart: %d %s", status, body)
	}
	status, gotReport := httpDo(t, http.MethodPost, base+"/v1/workflows/demo/views/v/validate", "")
	if status != http.StatusOK || gotReport != wantReport {
		t.Fatalf("report after restart diverges:\ngot:  %s\nwant: %s", gotReport, wantReport)
	}
	// The recovered daemon keeps journaling: mutate once more and make
	// sure the version advances from the recovered state.
	status, body = httpDo(t, http.MethodPost, base+"/v1/workflows/demo/mutate", `{"edges": [["a","d"]]}`)
	if status != http.StatusOK || !strings.Contains(body, `"version":3`) {
		t.Fatalf("mutate after restart: %d %s", status, body)
	}
}

// TestShutdownCheckpointFailureKeepsWAL: when the final checkpoint
// cannot land (disk refuses the snapshot rename), the daemon must not
// pretend the shutdown was clean — it logs, still releases the store,
// and exits non-zero. The WAL on disk stays authoritative: a clean
// reboot replays it and serves the exact pre-shutdown state.
func TestShutdownCheckpointFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	openStore = func(d string, opts storage.Options) (*storage.Store, error) {
		opts.FS = ffs
		return storage.Open(d, opts)
	}
	defer func() { openStore = storage.Open }()

	base, done := bootDaemon(t, "-data-dir", dir, "-fsync", "none")
	status, body := httpDo(t, http.MethodPut, base+"/v1/workflows/demo", `{
		"workflow": {"name":"demo","tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"]]},
		"views": [{"id":"v","view":{"name":"v","workflow":"demo","composites":[
			{"id":"ab","members":["a","b"]},{"id":"cc","members":["c"]}]}}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	status, body = httpDo(t, http.MethodPost, base+"/v1/workflows/demo/mutate",
		`{"edges": [["b","c"]], "tasks": [{"id":"d"}]}`)
	if status != http.StatusOK || !strings.Contains(body, `"version":2`) {
		t.Fatalf("mutate: %d %s", status, body)
	}
	if status, body = httpDo(t, http.MethodGet, base+"/readyz", ""); status != http.StatusOK {
		t.Fatalf("readyz while healthy: %d %s", status, body)
	}

	// Every snapshot publish now fails: the final checkpoint cannot land.
	ffs.Deny(vfs.OpRename, vfs.Fault{})
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "final checkpoint") {
			t.Fatalf("shutdown with failing checkpoint returned %v; want final-checkpoint error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after checkpoint failure")
	}
	ffs.Allow(vfs.OpRename)
	if ffs.Injected() == 0 {
		t.Fatal("checkpoint never hit the injected rename fault")
	}

	// Clean filesystem, same directory: recovery replays the WAL.
	openStore = storage.Open
	base2, done2 := bootDaemon(t, "-data-dir", dir, "-fsync", "none")
	defer stopDaemon(t, done2)
	status, body = httpDo(t, http.MethodGet, base2+"/v1/workflows/demo", "")
	if status != http.StatusOK || !strings.Contains(body, `"version":2`) {
		t.Fatalf("get after reboot: %d %s", status, body)
	}
	status, body = httpDo(t, http.MethodPost, base2+"/v1/workflows/demo/mutate", `{"edges": [["a","d"]]}`)
	if status != http.StatusOK || !strings.Contains(body, `"version":3`) {
		t.Fatalf("mutate after reboot: %d %s", status, body)
	}
}

// TestDurableRestartPreservesRuns: ingest an execution trace, SIGTERM
// the daemon, restart on the same -data-dir — the run and its audited
// lineage answer must survive recovery byte-identically.
func TestDurableRestartPreservesRuns(t *testing.T) {
	dir := t.TempDir()

	base, done := bootDaemon(t, "-data-dir", dir, "-fsync", "none")
	status, body := httpDo(t, http.MethodPut, base+"/v1/workflows/demo", `{
		"workflow": {"name":"demo","tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],
			"edges":[["a","b"],["b","c"]]},
		"views": [{"id":"v","view":{"name":"v","workflow":"demo","composites":[
			{"id":"ab","members":["a","b"]},{"id":"cc","members":["c"]}]}}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("register: %d %s", status, body)
	}
	status, body = httpDo(t, http.MethodPost, base+"/v1/workflows/demo/runs", `{
		"run":"r1",
		"artifacts":[{"id":"oa","generated_by":"a"},{"id":"ob","generated_by":"b"},{"id":"oc","generated_by":"c"}],
		"used":[{"process":"b","artifact":"oa"},{"process":"c","artifact":"ob"}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	lineageURL := base + "/v1/workflows/demo/runs/r1/lineage?artifact=oc&level=audited&view=v&witness=1"
	status, wantLineage := httpDo(t, http.MethodGet, lineageURL, "")
	if status != http.StatusOK || !strings.Contains(wantLineage, `"tasks":["a","b"]`) {
		t.Fatalf("lineage before restart: %d %s", status, wantLineage)
	}
	_, wantList := httpDo(t, http.MethodGet, base+"/v1/workflows/demo/runs", "")
	stopDaemon(t, done)

	base2, done2 := bootDaemon(t, "-data-dir", dir, "-fsync", "none")
	defer stopDaemon(t, done2)
	status, gotList := httpDo(t, http.MethodGet, base2+"/v1/workflows/demo/runs", "")
	if status != http.StatusOK || gotList != strings.ReplaceAll(wantList, base, base2) {
		t.Fatalf("run list after restart diverges:\ngot:  %s\nwant: %s", gotList, wantList)
	}
	lineageURL2 := base2 + "/v1/workflows/demo/runs/r1/lineage?artifact=oc&level=audited&view=v&witness=1"
	status, gotLineage := httpDo(t, http.MethodGet, lineageURL2, "")
	if status != http.StatusOK || gotLineage != wantLineage {
		t.Fatalf("lineage after restart diverges:\ngot:  %s\nwant: %s", gotLineage, wantLineage)
	}
	// The recovered daemon keeps journaling runs.
	status, body = httpDo(t, http.MethodPost, base2+"/v1/workflows/demo/runs", `{
		"run":"r2","artifacts":[{"id":"x","generated_by":"a"}]}`)
	if status != http.StatusOK {
		t.Fatalf("ingest after restart: %d %s", status, body)
	}
	status, body = httpDo(t, http.MethodGet, base2+"/metrics", "")
	if status != http.StatusOK || !strings.Contains(body, "\nwolves_runs_resident 2\n") {
		t.Fatalf("metrics after restart: %d %s", status, body)
	}
}

// TestPprofPrivateListener boots the daemon with -pprof-addr on a
// second loopback port: the profile index must answer there, and must
// NOT be reachable through the public service address.
func TestPprofPrivateListener(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := l.Addr().String()
	l.Close()

	base, done := bootDaemon(t, "-pprof-addr", pprofAddr)

	ok := false
	for i := 0; i < 100; i++ {
		resp, gerr := http.Get("http://" + pprofAddr + "/debug/pprof/")
		if gerr == nil {
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatal("pprof index not served on the private listener")
	}
	if status, _ := httpDo(t, http.MethodGet, base+"/debug/pprof/", ""); status == http.StatusOK {
		t.Fatal("pprof must not be reachable on the public address")
	}
	stopDaemon(t, done)

	// A bad pprof address must fail startup fast.
	if err := run([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "256.0.0.1:http"}); err == nil {
		t.Fatal("bad -pprof-addr must fail run()")
	}
}
