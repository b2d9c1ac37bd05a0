// Package server exposes a wolves Engine over HTTP: the wolvesd wire
// protocol. Requests carry the workflow and view inline as the same JSON
// documents the CLI reads from disk; responses carry the exact Report /
// correction structures of the in-process API, so an HTTP round-trip and
// a direct Engine call are interchangeable. The Engine's oracle cache
// makes the serving story scale: the first request for a workflow builds
// its reachability closure, and every later request with the same
// fingerprint reuses it. A later request still decodes both documents
// and fingerprints the workflow, but the span decoders
// (workflow.DecodeBytes, view.DecodeBytes, fed the raw request bytes)
// make that a fixed number of allocations, so a cache hit costs the
// decode, the hash and the per-view validation.
//
// Stateless endpoints (workflow and view travel in every request):
//
//	POST /v1/validate  {"workflow": …, "view": …}
//	POST /v1/correct   {"workflow": …, "view": …, "criterion": "strong"}
//	POST /v1/batch     {"jobs": [{"op": "validate"|"correct", …}, …]}
//	GET  /healthz      liveness: {"status":"ok"}
//	GET  /readyz       readiness and degraded-mode health
//
// Live workflow resources (upload once, pay only deltas; see registry.go):
//
//	GET    /v1/workflows                           enumerate registered workflows
//	PUT    /v1/workflows/{id}                      {"workflow": …, "views": [{"id": …, "view": …}]}
//	GET    /v1/workflows/{id}
//	DELETE /v1/workflows/{id}
//	POST   /v1/workflows/{id}/mutate               {"tasks": […], "edges": [["a","b"], …], "if_version": n}
//	PUT    /v1/workflows/{id}/views/{vid}          <view JSON document>
//	DELETE /v1/workflows/{id}/views/{vid}
//	POST   /v1/workflows/{id}/views/{vid}/validate
//	POST   /v1/workflows/{id}/views/{vid}/correct  {"criterion": "strong"}
//	POST   /v1/workflows/{id}/views/{vid}/lineage  {"task": "8"}
//
// Provenance runs (see runs.go: ingest execution traces, query lineage):
//
//	POST /v1/workflows/{id}/runs                   ingest (JSON or NDJSON)
//	GET  /v1/workflows/{id}/runs                   list runs
//	GET  /v1/workflows/{id}/runs/{rid}             run metadata
//	GET  /v1/workflows/{id}/runs/{rid}/lineage     ?artifact=…&level=exact|view|audited
//	POST /v1/workflows/{id}/runs/query             batch lineage queries
//
// Observability (see internal/obs and obs.go) — /metrics is the one
// stats surface:
//
//	GET  /metrics                                  Prometheus text exposition
//	GET  /debug/traces                             recent trace spans (JSON tail)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wolves/internal/core"
	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/runs"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// MaxBodyBytes caps request bodies; a million-user service does not read
// unbounded uploads into memory.
const MaxBodyBytes = 8 << 20

// DefaultRequestTimeout bounds how long any single request may run
// before its context is canceled; see WithRequestTimeout.
const DefaultRequestTimeout = 30 * time.Second

// retryAfterSeconds is the Retry-After hint attached to 503 responses
// (degraded registry, shed load, draining). Clients with backoff of
// their own can ignore it; dumb retry loops get a sane floor.
const retryAfterSeconds = "1"

// Server wires an Engine, a live workflow Registry and a run store to
// the HTTP endpoints.
type Server struct {
	eng   *engine.Engine
	reg   *engine.Registry
	runs  *runs.Store
	start time.Time

	// Load-shedding knobs (see the With* options) and the draining flag
	// flipped by StartDraining during graceful shutdown.
	maxBody    int64
	reqTimeout time.Duration
	ingestSem  chan struct{}
	draining   atomic.Bool
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithRegistry supplies a pre-built live workflow registry (wolvesd uses
// it to apply the -live-workflows capacity flag). The default is a
// registry with engine.DefaultRegistryCapacity.
func WithRegistry(reg *engine.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithRunStore supplies a pre-built run store (wolvesd uses it to wire
// the durable journal). The default is an in-memory store over the
// server's registry.
func WithRunStore(rs *runs.Store) Option {
	return func(s *Server) { s.runs = rs }
}

// WithRequestTimeout bounds every request's context: handlers observe
// the deadline through r.Context() and return 504 when it expires. Zero
// or negative disables the bound (tests use this); the default is
// DefaultRequestTimeout.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithMaxBodyBytes overrides the request body cap (default MaxBodyBytes).
// Non-positive values keep the default.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithIngestConcurrency caps how many run-ingest requests may be in
// flight at once; excess requests are shed with a typed overloaded
// error (503 + Retry-After) instead of queueing unboundedly behind the
// journal. Non-positive values keep the default of max(2, engine
// workers).
func WithIngestConcurrency(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.ingestSem = make(chan struct{}, n)
		}
	}
}

// New wraps eng in a Server.
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, start: time.Now(),
		maxBody: MaxBodyBytes, reqTimeout: DefaultRequestTimeout}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = engine.NewRegistry(eng)
	}
	if s.runs == nil {
		s.runs = runs.New(s.reg, runs.WithWorkers(eng.Workers()))
	}
	if s.ingestSem == nil {
		n := eng.Workers()
		if n < 2 {
			n = 2
		}
		s.ingestSem = make(chan struct{}, n)
	}
	s.bindCollectors()
	return s
}

// StartDraining flips /readyz to 503 so load balancers stop routing new
// traffic here while in-flight requests finish. wolvesd calls it on
// SIGTERM before closing the listener. Query and mutation handlers keep
// working during the drain; only the readiness signal changes.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Handler returns the wolvesd route table wrapped in the server's
// middleware: every route carries the observability wrapper (trace
// span, latency histogram, request counters, slow-query log — see
// obs.go), and every request gets a context deadline
// (WithRequestTimeout) and a body size cap (WithMaxBodyBytes) before a
// handler sees it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, instrument(pattern, h))
	}
	handle("POST /v1/validate", s.handleValidate)
	handle("POST /v1/correct", s.handleCorrect)
	handle("POST /v1/batch", s.handleBatch)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	handle("GET /v1/workflows", s.handleWorkflowList)
	handle("PUT /v1/workflows/{id}", s.handleWorkflowPut)
	handle("GET /v1/workflows/{id}", s.handleWorkflowGet)
	handle("DELETE /v1/workflows/{id}", s.handleWorkflowDelete)
	handle("POST /v1/workflows/{id}/mutate", s.handleWorkflowMutate)
	handle("PUT /v1/workflows/{id}/views/{vid}", s.handleViewPut)
	handle("DELETE /v1/workflows/{id}/views/{vid}", s.handleViewDelete)
	handle("POST /v1/workflows/{id}/views/{vid}/validate", s.handleViewValidate)
	handle("POST /v1/workflows/{id}/views/{vid}/correct", s.handleViewCorrect)
	handle("POST /v1/workflows/{id}/views/{vid}/lineage", s.handleViewLineage)
	handle("POST /v1/workflows/{id}/runs", s.handleRunIngest)
	handle("GET /v1/workflows/{id}/runs", s.handleRunList)
	handle("GET /v1/workflows/{id}/runs/{rid}", s.handleRunGet)
	handle("GET /v1/workflows/{id}/runs/{rid}/lineage", s.handleRunLineage)
	handle("POST /v1/workflows/{id}/runs/query", s.handleRunQuery)
	mux.Handle("GET /metrics", instrument("GET /metrics", obs.Default.Handler()))
	mux.Handle("GET /debug/traces", instrument("GET /debug/traces", obs.DefaultTracer.Handler()))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		mux.ServeHTTP(w, r)
	})
}

// --- wire types ---------------------------------------------------------------

// ValidateRequest is the body of POST /v1/validate.
type ValidateRequest struct {
	Workflow json.RawMessage `json:"workflow"`
	View     json.RawMessage `json:"view"`
}

// ValidateResponse carries the in-process Report verbatim.
type ValidateResponse struct {
	Report *soundness.Report `json:"report"`
}

// CorrectRequest is the body of POST /v1/correct.
type CorrectRequest struct {
	Workflow  json.RawMessage `json:"workflow"`
	View      json.RawMessage `json:"view"`
	Criterion string          `json:"criterion,omitempty"` // default "strong"
}

// TaskSummary summarizes one composite repair on the wire.
type TaskSummary struct {
	CompositeID string `json:"composite_id"`
	Before      int    `json:"before"`
	After       int    `json:"after"`
	SoundChecks int    `json:"sound_checks"`
	Merges      int    `json:"merges"`
}

// CorrectResponse is the body of a successful correction.
type CorrectResponse struct {
	Criterion        string          `json:"criterion"`
	CompositesBefore int             `json:"composites_before"`
	CompositesAfter  int             `json:"composites_after"`
	Tasks            []TaskSummary   `json:"tasks,omitempty"`
	CorrectedView    json.RawMessage `json:"corrected_view"`
	// Report re-validates the corrected view (always sound; included so
	// clients need no second round-trip to show the diagnosis).
	Report *soundness.Report `json:"report"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Jobs []BatchJob `json:"jobs"`
}

// BatchJob is one unit of batch work.
type BatchJob struct {
	Op        string          `json:"op"` // "validate" | "correct"
	Workflow  json.RawMessage `json:"workflow"`
	View      json.RawMessage `json:"view"`
	Criterion string          `json:"criterion,omitempty"`
}

// BatchResult is the per-job outcome; exactly one of Error, Report, or
// Correct is set.
type BatchResult struct {
	Error   *engine.Error     `json:"error,omitempty"`
	Report  *soundness.Report `json:"report,omitempty"`
	Correct *CorrectResponse  `json:"correct,omitempty"`
}

// BatchResponse is the body of POST /v1/batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error *engine.Error `json:"error"`
}

// --- handlers -----------------------------------------------------------------

// statusFor maps engine error codes onto HTTP statuses. The switch is
// machine-checked: wolveslint's errcode analyzer fails the build if a
// declared engine.Code is missing a case, so a code added to the engine
// cannot silently fall through to 500.
func statusFor(e *engine.Error) int {
	//lint:exhaustive errcode
	switch e.Code {
	case engine.ErrBadInput, engine.ErrUnknownTask,
		engine.ErrUnknownComposite, engine.ErrWorkflowMismatch:
		return http.StatusBadRequest
	case engine.ErrUnknownWorkflow, engine.ErrUnknownView,
		engine.ErrUnknownRun, engine.ErrUnknownArtifact:
		return http.StatusNotFound
	case engine.ErrVersionConflict:
		return http.StatusConflict
	case engine.ErrOptimalLimit, engine.ErrCycleRejected, engine.ErrInvalidTrace:
		return http.StatusUnprocessableEntity
	case engine.ErrCanceled:
		return http.StatusGatewayTimeout
	case engine.ErrDegraded, engine.ErrOverloaded:
		return http.StatusServiceUnavailable
	case engine.ErrInternal:
		return http.StatusInternalServerError
	default:
		// Unknown codes (future engines, corrupted errors) are server
		// faults, not client ones.
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body) // the status line is already out; nothing to salvage
}

func writeError(w http.ResponseWriter, err error) {
	var ee *engine.Error
	if !errors.As(err, &ee) {
		ee = &engine.Error{Code: engine.ErrInternal, Message: err.Error()}
	}
	status := statusFor(ee)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, errorResponse{Error: ee})
}

// decodeBody reads a JSON body. The size cap is applied once, by the
// Handler middleware; an oversized body surfaces here as a decode error
// (net/http's MaxBytesReader has already replied 413 on the wire).
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		return &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	return nil
}

// decodePair turns raw workflow/view JSON into validated model objects.
func decodePair(wfRaw, vRaw json.RawMessage) (*workflow.Workflow, *view.View, error) {
	if len(wfRaw) == 0 {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: "missing workflow"}
	}
	if len(vRaw) == 0 {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: "missing view"}
	}
	wf, err := workflow.DecodeBytes(wfRaw)
	if err != nil {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	v, err := view.DecodeBytes(wf, vRaw)
	if err != nil {
		return nil, nil, &engine.Error{Code: engine.ErrBadInput, Op: "decode", Message: err.Error(), Err: err}
	}
	return wf, v, nil
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req ValidateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	wf, v, err := decodePair(req.Workflow, req.View)
	if err != nil {
		writeError(w, err)
		return
	}
	rep, err := s.eng.Validate(r.Context(), wf, v)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ValidateResponse{Report: rep})
}

// correctResponse runs one correction and shapes the wire response.
func (s *Server) correctResponse(r *http.Request, wfRaw, vRaw json.RawMessage, criterion string) (*CorrectResponse, error) {
	wf, v, err := decodePair(wfRaw, vRaw)
	if err != nil {
		return nil, err
	}
	if criterion == "" {
		criterion = "strong"
	}
	crit, err := core.ParseCriterion(criterion)
	if err != nil {
		return nil, &engine.Error{Code: engine.ErrBadInput, Op: "correct", Message: err.Error(), Err: err}
	}
	vc, err := s.eng.Correct(r.Context(), wf, v, crit)
	if err != nil {
		return nil, err
	}
	return s.shapeCorrection(r, engine.CorrectJob{Workflow: wf, View: v, Criterion: crit}, vc)
}

func (s *Server) handleCorrect(w http.ResponseWriter, r *http.Request) {
	var req CorrectRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.correctResponse(r, req.Workflow, req.View, req.Criterion)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "batch", Message: "no jobs"})
		return
	}
	results := make([]BatchResult, len(req.Jobs))

	// Decode and partition by op; the engine batch entry points fan the
	// decoded jobs over the worker pool.
	var vjobs []engine.ValidateJob
	var vIdx []int
	var cjobs []engine.CorrectJob
	var cIdx []int
	for i, j := range req.Jobs {
		switch j.Op {
		case "validate":
			wf, v, err := decodePair(j.Workflow, j.View)
			if err != nil {
				results[i] = BatchResult{Error: asEngineError(err)}
				continue
			}
			vjobs = append(vjobs, engine.ValidateJob{Workflow: wf, View: v})
			vIdx = append(vIdx, i)
		case "correct":
			wf, v, err := decodePair(j.Workflow, j.View)
			if err != nil {
				results[i] = BatchResult{Error: asEngineError(err)}
				continue
			}
			criterion := j.Criterion
			if criterion == "" {
				criterion = "strong"
			}
			crit, err := core.ParseCriterion(criterion)
			if err != nil {
				results[i] = BatchResult{Error: &engine.Error{
					Code: engine.ErrBadInput, Op: "batch", Message: err.Error(), Err: err}}
				continue
			}
			cjobs = append(cjobs, engine.CorrectJob{Workflow: wf, View: v, Criterion: crit})
			cIdx = append(cIdx, i)
		default:
			results[i] = BatchResult{Error: &engine.Error{
				Code: engine.ErrBadInput, Op: "batch",
				Message: fmt.Sprintf("unknown op %q (want validate|correct)", j.Op)}}
		}
	}

	// The two op groups are independent: run them concurrently so a slow
	// correction does not serialize behind (or ahead of) the validations.
	// The engine's fan-out cap is split between the groups (wV + wC =
	// Workers()) so one /v1/batch never exceeds the configured width; a
	// single-worker engine, or a single-op batch, runs the groups in
	// sequence at full width instead.
	drainValidate := func(workers int) {
		for k, res := range s.eng.ValidateBatch(r.Context(), vjobs, workers) {
			i := vIdx[k]
			if res.Err != nil {
				results[i] = BatchResult{Error: res.Err}
				continue
			}
			results[i] = BatchResult{Report: res.Report}
		}
	}
	drainCorrect := func(workers int) {
		for k, res := range s.eng.CorrectBatch(r.Context(), cjobs, workers) {
			i := cIdx[k]
			if res.Err != nil {
				results[i] = BatchResult{Error: res.Err}
				continue
			}
			cr, err := s.shapeCorrection(r, cjobs[k], res.Correction)
			if err != nil {
				results[i] = BatchResult{Error: asEngineError(err)}
				continue
			}
			results[i] = BatchResult{Correct: cr}
		}
	}
	width := s.eng.Workers()
	if len(vjobs) == 0 || len(cjobs) == 0 || width < 2 {
		drainValidate(0)
		drainCorrect(0)
	} else {
		wV := width * len(vjobs) / (len(vjobs) + len(cjobs))
		if wV < 1 {
			wV = 1
		}
		if wV > width-1 {
			wV = width - 1
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); drainValidate(wV) }()
		go func() { defer wg.Done(); drainCorrect(width - wV) }()
		wg.Wait()
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// shapeCorrection converts an in-process correction to the wire shape.
func (s *Server) shapeCorrection(r *http.Request, job engine.CorrectJob, vc *core.ViewCorrection) (*CorrectResponse, error) {
	rep, err := s.eng.Validate(r.Context(), job.Workflow, vc.Corrected)
	if err != nil {
		return nil, err
	}
	return correctResponseBody(vc, rep)
}

// correctResponseBody shapes a correction plus its re-validation report;
// shared by the stateless and live-workflow correct handlers.
func correctResponseBody(vc *core.ViewCorrection, rep *soundness.Report) (*CorrectResponse, error) {
	corrected, err := json.Marshal(vc.Corrected)
	if err != nil {
		return nil, err
	}
	resp := &CorrectResponse{
		Criterion:        vc.Criterion.String(),
		CompositesBefore: vc.CompositesBefore,
		CompositesAfter:  vc.CompositesAfter,
		CorrectedView:    corrected,
		Report:           rep,
	}
	for _, tc := range vc.Tasks {
		resp.Tasks = append(resp.Tasks, TaskSummary{
			CompositeID: tc.CompositeID,
			Before:      tc.Before,
			After:       tc.After,
			SoundChecks: tc.Result.Stats.SoundChecks,
			Merges:      tc.Result.Stats.Merges,
		})
	}
	return resp, nil
}

func asEngineError(err error) *engine.Error {
	var ee *engine.Error
	if errors.As(err, &ee) {
		return ee
	}
	return &engine.Error{Code: engine.ErrInternal, Message: err.Error(), Err: err}
}

// handleHealthz is the liveness probe: {"status":"ok"} while the
// process serves. Counters live on /metrics, health on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyResponse is the body of GET /readyz. Status is "healthy" (200),
// "degraded" or "draining" (503 + Retry-After); Health carries the
// registry's degraded-mode counters either way.
type ReadyResponse struct {
	Status string            `json:"status"`
	Health engine.HealthInfo `json:"health"`
}

// handleReadyz is the load-balancer readiness probe. /healthz answers
// "is the process alive" and always says 200; /readyz answers "should
// you send traffic here" and flips to 503 while the registry is in
// degraded read-only mode or the daemon is draining for shutdown. A
// degraded daemon still serves queries — routing reads elsewhere is a
// policy choice the balancer makes, not one we force.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Status: engine.HealthHealthy, Health: s.reg.Health()}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	case resp.Health.Status != engine.HealthHealthy:
		resp.Status = resp.Health.Status
		status = http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, resp)
}
