package server

import (
	"bytes"
	"encoding/json"
	"io"
	"mime"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"wolves/internal/engine"
	"wolves/internal/runs"
)

// This file implements the provenance service endpoints: ingest real
// execution traces against registered workflows and query lineage over
// them at three levels (exact / view / audited), plus the daemon's
// observability endpoint.
//
//	POST /v1/workflows/{id}/runs                   ingest a run (JSON or NDJSON)
//	GET  /v1/workflows/{id}/runs                   list ingested runs
//	GET  /v1/workflows/{id}/runs/{rid}             run metadata
//	GET  /v1/workflows/{id}/runs/{rid}/lineage     ?artifact=…&level=exact|view|audited
//	                                               [&view=vid][&direction=ancestors|descendants][&witness=1]
//	POST /v1/workflows/{id}/runs/query             {"queries": [{…}, …]} (worker-pool batch)
//	GET  /v1/stats                                 cache / registry / run-store counters

// RunListResponse is the body of GET /v1/workflows/{id}/runs, and of a
// batch ingest (POST with a JSON array of run documents).
type RunListResponse struct {
	Workflow string         `json:"workflow"`
	Count    int            `json:"count"`
	Runs     []runs.RunInfo `json:"runs"`
}

// The NDJSON line cap and the request body cap are one limit: no line a
// client can legally upload is ever rejected by the cap alone, and no
// request can spill more than a body's worth into the line buffer. The
// zero-length array pair asserts the equality at compile time.
var (
	_ [runs.MaxNDJSONLineBytes - MaxBodyBytes]struct{}
	_ [MaxBodyBytes - runs.MaxNDJSONLineBytes]struct{}
)

// RunQueryRequest is the body of POST /v1/workflows/{id}/runs/query.
type RunQueryRequest struct {
	Queries []runs.Query `json:"queries"`
}

// RunQueryResponse carries per-query results in input order.
type RunQueryResponse struct {
	Results []runs.BatchResult `json:"results"`
}

// RegistryStats summarizes the live workflow registry for /v1/stats.
type RegistryStats struct {
	Workflows int               `json:"workflows"`
	Capacity  int               `json:"capacity"`
	Views     int               `json:"views"`
	Versions  map[string]uint64 `json:"versions"`
}

// RecoveryInfo is the boot-time recovery summary wolvesd hands the
// server (WithRecoveryInfo): what the store rebuilt, how, and how long
// it took. Surfaced under "recovery" in /v1/stats so operators can read
// it after the boot log has scrolled away; absent when the daemon runs
// without a data dir.
type RecoveryInfo struct {
	Workflows        int   `json:"workflows"`
	Views            int   `json:"views"`
	Snapshots        int   `json:"snapshots"`
	SnapshotsDropped int   `json:"snapshots_dropped"`
	Segments         int   `json:"segments"`
	RecordsReplayed  int64 `json:"records_replayed"`
	RecordsSkipped   int64 `json:"records_skipped"`
	Runs             int64 `json:"runs"`
	TornBytes        int64 `json:"torn_bytes"`
	Workers          int   `json:"workers"`
	WallMillis       int64 `json:"wall_millis"`
}

// BuildStats identifies the running binary and its runtime state for
// /v1/stats: the module version and VCS commit from the embedded build
// info, the Go toolchain, and the live goroutine count.
type BuildStats struct {
	Version    string `json:"version"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Goroutines int    `json:"goroutines"`
}

// StatsResponse is the body of GET /v1/stats: the oracle cache's
// hit/miss/build/eviction counters, the registry population with
// per-workflow versions, the run store's resident and lifetime counters
// (runs, artifacts, bytes journaled), the reachability label index's
// build/patch/memory counters, the build identity, and the boot-time
// recovery summary.
//
// Deprecation note: /v1/stats is a point-in-time JSON snapshot kept for
// humans and existing tooling. Time-series monitoring should scrape
// GET /metrics (Prometheus text exposition) instead; MetricsNote says
// so on the wire.
type StatsResponse struct {
	Status        string            `json:"status"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      int64             `json:"requests"`
	Workers       int               `json:"workers"`
	Cache         engine.CacheStats `json:"cache"`
	Health        engine.HealthInfo `json:"health"`
	Registry      RegistryStats     `json:"registry"`
	Runs          runs.Stats        `json:"runs"`
	Labels        engine.LabelStats `json:"labels"`
	Recovery      *RecoveryInfo     `json:"recovery,omitempty"`
	Build         BuildStats        `json:"build"`
	MetricsNote   string            `json:"metrics_note"`
}

// isNDJSON reports whether the request body is an NDJSON stream.
func isNDJSON(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/x-ndjson" || mt == "application/ndjson" ||
		strings.HasSuffix(mt, "+ndjson")
}

func (s *Server) handleRunIngest(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	// Admission control: ingests journal and index whole traces, so they
	// are the expensive writes. Shed immediately when the configured
	// concurrency is saturated — a bounded 503 beats an unbounded queue
	// that takes the daemon down with it.
	select {
	case s.ingestSem <- struct{}{}:
		defer func() { <-s.ingestSem }()
	default:
		writeError(w, &engine.Error{Code: engine.ErrOverloaded, Op: "ingest",
			Message: "too many concurrent ingests; retry later"})
		return
	}
	var info *runs.RunInfo
	var err error
	if isNDJSON(r) {
		info, err = s.runs.IngestNDJSONCtx(r.Context(), id, r.Body)
	} else {
		var raw []byte
		raw, err = io.ReadAll(r.Body)
		if err != nil {
			writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "ingest", Message: err.Error(), Err: err})
			return
		}
		// A JSON array is a batch of run documents: validated
		// all-or-nothing and journaled as one group-commit burst.
		// Its elements are framed as sub-slices of the body, not copied.
		if body := bytes.TrimLeft(raw, " \t\r\n"); len(body) > 0 && body[0] == '[' {
			batch, jerr := runs.SplitBatch(body)
			if jerr != nil {
				writeError(w, &engine.Error{Code: engine.ErrInvalidTrace, Op: "ingest",
					Message: "malformed run document batch: " + jerr.Error(), Err: jerr})
				return
			}
			infos, berr := s.runs.IngestBatchCtx(r.Context(), id, batch)
			if berr != nil {
				writeError(w, berr)
				return
			}
			writeJSON(w, http.StatusOK, RunListResponse{Workflow: id, Count: len(infos), Runs: infos})
			return
		}
		info, err = s.runs.IngestCtx(r.Context(), id, raw)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id := r.PathValue("id")
	infos, err := s.runs.Runs(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunListResponse{Workflow: id, Count: len(infos), Runs: infos})
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	info, err := s.runs.Info(r.PathValue("id"), r.PathValue("rid"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRunLineage(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	qs := r.URL.Query()
	q := runs.Query{
		Run:       r.PathValue("rid"),
		Artifact:  qs.Get("artifact"),
		Level:     qs.Get("level"),
		View:      qs.Get("view"),
		Direction: qs.Get("direction"),
	}
	switch qs.Get("witness") {
	case "", "0", "false":
	default:
		q.Witness = true
	}
	ans, err := s.runs.LineageCtx(r.Context(), r.PathValue("id"), q)
	if err != nil {
		writeError(w, err)
		return
	}
	// Stream the answer straight to the wire through the reusable
	// encoder: no reflection, no intermediate []byte per response. The
	// bytes (trailing newline included) are identical to what
	// writeJSON's json.Encoder would have produced.
	buf := encodeBufPool.Get().(*[]byte) //lint:allow poolret Put follows after the write below
	b := ans.AppendJSON((*buf)[:0])
	ans.Release()
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the status line is already out; nothing to salvage
	*buf = b
	encodeBufPool.Put(buf)
}

// encodeBufPool recycles response buffers for the streaming handlers.
var encodeBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func (s *Server) handleRunQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req RunQueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	// Width 0 defers to the run store's configured WithWorkers default
	// (seeded from the engine's width at construction).
	results, err := s.runs.LineageBatch(r.Context(), r.PathValue("id"), req.Queries, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	// Stream the batch: answers go through the reusable encoder, the
	// rare error results through reflection (their shape is tiny).
	buf := encodeBufPool.Get().(*[]byte) //lint:allow poolret Put follows after the write below
	b := append((*buf)[:0], `{"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		if a := results[i].Answer; a != nil {
			b = append(b, `{"answer":`...)
			b = a.AppendJSON(b)
			b = append(b, '}')
		} else {
			eb, merr := json.Marshal(results[i])
			if merr != nil {
				runs.ReleaseResults(results)
				encodeBufPool.Put(buf)
				writeError(w, merr)
				return
			}
			b = append(b, eb...)
		}
	}
	b = append(b, ']', '}', '\n')
	runs.ReleaseResults(results)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the status line is already out; nothing to salvage
	*buf = b
	encodeBufPool.Put(buf)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	infos := s.reg.Infos()
	rs := RegistryStats{
		Workflows: len(infos),
		Capacity:  s.reg.Capacity(),
		Versions:  make(map[string]uint64, len(infos)),
	}
	for _, info := range infos {
		rs.Versions[info.ID] = info.Version
		rs.Views += len(info.Views)
	}
	version, commit := buildInfo()
	writeJSON(w, http.StatusOK, StatsResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Workers:       s.eng.Workers(),
		Cache:         s.eng.CacheStats(),
		Health:        s.reg.Health(),
		Registry:      rs,
		Runs:          s.runs.Stats(),
		Labels:        s.reg.LabelStats(),
		Recovery:      s.recovery,
		Build: BuildStats{
			Version:    version,
			Commit:     commit,
			GoVersion:  runtime.Version(),
			Goroutines: runtime.NumGoroutine(),
		},
		MetricsNote: "point-in-time snapshot; scrape GET /metrics for time series",
	})
}
