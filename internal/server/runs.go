package server

import (
	"bytes"
	"encoding/json"
	"io"
	"mime"
	"net/http"
	"strings"
	"sync"

	"wolves/internal/engine"
	"wolves/internal/runs"
)

// This file implements the provenance service endpoints: ingest real
// execution traces against registered workflows and query lineage over
// them at three levels (exact / view / audited).
//
//	POST /v1/workflows/{id}/runs                   ingest a run (JSON or NDJSON)
//	GET  /v1/workflows/{id}/runs                   list ingested runs
//	GET  /v1/workflows/{id}/runs/{rid}             run metadata
//	GET  /v1/workflows/{id}/runs/{rid}/lineage     ?artifact=…&level=exact|view|audited
//	                                               [&view=vid][&direction=ancestors|descendants][&witness=1]
//	POST /v1/workflows/{id}/runs/query             {"queries": [{…}, …]} (worker-pool batch)

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
	id := r.PathValue("id")
	infos, err := s.runs.Runs(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunListResponse{Workflow: id, Count: len(infos), Runs: infos})
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.runs.Info(r.PathValue("id"), r.PathValue("rid"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRunLineage(w http.ResponseWriter, r *http.Request) {
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
