package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"wolves/internal/core"
	"wolves/internal/engine"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file implements the live workflow resources: clients PUT a
// workflow (plus views) once, then POST cheap mutation batches instead
// of re-uploading the world. The registry keeps every attached view's
// soundness report permanently current via incremental closure
// maintenance and dirty-set revalidation, so the validate endpoint is a
// lookup, the mutate endpoint reports exactly which composites flipped,
// and the lineage endpoint contrasts view-level provenance with the
// exact task-level answer.

// --- wire types ---------------------------------------------------------------

// RegisterRequest is the body of PUT /v1/workflows/{id}.
type RegisterRequest struct {
	Workflow json.RawMessage `json:"workflow"`
	Views    []RegisterView  `json:"views,omitempty"`
}

// RegisterView names one view to attach at registration. ID defaults to
// the view document's own name.
type RegisterView struct {
	ID   string          `json:"id,omitempty"`
	View json.RawMessage `json:"view"`
}

// RegisterResponse is the body of a successful registration: the initial
// full report of every attached view (maintained incrementally from here
// on).
type RegisterResponse struct {
	ID      string                       `json:"id"`
	Version uint64                       `json:"version"`
	Reports map[string]*soundness.Report `json:"reports,omitempty"`
}

// WorkflowResource is the body of GET /v1/workflows/{id}.
type WorkflowResource struct {
	engine.WorkflowInfo
	Workflow json.RawMessage `json:"workflow"`
}

// WorkflowListResponse is the body of GET /v1/workflows: the metadata of
// every registered workflow, sorted by ID (documents stay behind the
// per-workflow GET).
type WorkflowListResponse struct {
	Count     int                   `json:"count"`
	Workflows []engine.WorkflowInfo `json:"workflows"`
}

// MutateRequest is the body of POST /v1/workflows/{id}/mutate.
type MutateRequest struct {
	Tasks     []MutateTask `json:"tasks,omitempty"`
	Edges     [][2]string  `json:"edges,omitempty"`
	IfVersion uint64       `json:"if_version,omitempty"`
}

// MutateTask is one task addition on the wire.
type MutateTask struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// LiveReportResponse is the body of the view validate (and attach)
// endpoints: the maintained report plus the workflow version it
// reflects.
type LiveReportResponse struct {
	Version uint64            `json:"version"`
	Report  *soundness.Report `json:"report"`
}

// LiveCorrectRequest is the body of the live correct endpoint; an empty
// body means criterion "strong".
type LiveCorrectRequest struct {
	Criterion string `json:"criterion,omitempty"`
}

// LiveCorrectResponse pairs the correction with the workflow version it
// was computed against. The live view is not replaced; PUT the corrected
// view back to apply it.
type LiveCorrectResponse struct {
	Version uint64           `json:"version"`
	Correct *CorrectResponse `json:"correct"`
}

// LineageRequest is the body of the lineage endpoint.
type LineageRequest struct {
	Task string `json:"task"`
}

// --- handlers -----------------------------------------------------------------

// attachDecoded attaches a raw view document to lw, resolving the view
// ID (explicit, else the document's name). The returned version is the
// one the report was validated under.
func attachDecoded(ctx context.Context, lw *engine.LiveWorkflow, vid string, raw json.RawMessage) (*soundness.Report, uint64, error) {
	if len(raw) == 0 {
		return nil, 0, &engine.Error{Code: engine.ErrBadInput, Op: "attach", Message: "missing view"}
	}
	if vid == "" {
		var peek struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &peek); err != nil {
			return nil, 0, &engine.Error{Code: engine.ErrBadInput, Op: "attach", Message: err.Error(), Err: err}
		}
		vid = peek.Name
	}
	return lw.AttachViewCtx(ctx, vid, func(wf *workflow.Workflow) (*view.View, error) {
		return view.DecodeBytes(wf, raw)
	})
}

func (s *Server) handleWorkflowPut(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req RegisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Workflow) == 0 {
		writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "register", Message: "missing workflow"})
		return
	}
	wf, err := workflow.DecodeBytes(req.Workflow)
	if err != nil {
		writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "register", Message: err.Error(), Err: err})
		return
	}
	// Decode every view against wf before registering, so a malformed
	// view rejects the whole request instead of leaving a half-attached
	// workflow. Register takes ownership of wf, and the prebuilt views
	// share its pointer, so the attach closures below hand them back
	// untouched.
	type pending struct {
		vid string
		v   *view.View
	}
	var attach []pending
	for i := range req.Views {
		rv := req.Views[i]
		if len(rv.View) == 0 {
			writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "register", Message: "views[] entry missing view"})
			return
		}
		v, err := view.DecodeBytes(wf, rv.View)
		if err != nil {
			writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "register", Message: err.Error(), Err: err})
			return
		}
		vid := rv.ID
		if vid == "" {
			vid = v.Name()
		}
		if vid == "" {
			writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "register", Message: "view has neither id nor name"})
			return
		}
		attach = append(attach, pending{vid: vid, v: v})
	}
	lw, err := s.reg.RegisterCtx(r.Context(), r.PathValue("id"), wf)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := RegisterResponse{ID: lw.ID(), Version: lw.Version()}
	for _, p := range attach {
		pv := p.v
		rep, version, err := lw.AttachViewCtx(r.Context(), p.vid, func(*workflow.Workflow) (*view.View, error) { return pv, nil })
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Version = version
		if resp.Reports == nil {
			resp.Reports = make(map[string]*soundness.Report, len(attach))
		}
		resp.Reports[p.vid] = rep
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkflowList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	infos := s.reg.Infos()
	if infos == nil {
		infos = []engine.WorkflowInfo{} // an empty registry lists as [], not null
	}
	writeJSON(w, http.StatusOK, WorkflowListResponse{Count: len(infos), Workflows: infos})
}

func (s *Server) handleWorkflowGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	info, snap, err := lw.Resource()
	if err != nil {
		writeError(w, err)
		return
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, WorkflowResource{WorkflowInfo: info, Workflow: raw})
}

func (s *Server) handleWorkflowDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if err := s.reg.DeleteCtx(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWorkflowMutate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req MutateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	m := engine.Mutation{Edges: req.Edges, IfVersion: req.IfVersion}
	for _, t := range req.Tasks {
		m.Tasks = append(m.Tasks, workflow.Task{ID: t.ID, Name: t.Name, Kind: t.Kind})
	}
	res, err := lw.MutateCtx(r.Context(), m)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleViewPut(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "attach", Message: err.Error(), Err: err})
		return
	}
	rep, version, err := attachDecoded(r.Context(), lw, r.PathValue("vid"), raw)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LiveReportResponse{Version: version, Report: rep})
}

func (s *Server) handleViewDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if err := lw.DetachViewCtx(r.Context(), r.PathValue("vid")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleViewValidate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	rep, version, err := lw.Report(r.PathValue("vid"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LiveReportResponse{Version: version, Report: rep})
}

func (s *Server) handleViewCorrect(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req LiveCorrectRequest
	if err := decodeLenientBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Criterion == "" {
		req.Criterion = "strong"
	}
	crit, err := core.ParseCriterion(req.Criterion)
	if err != nil {
		writeError(w, &engine.Error{Code: engine.ErrBadInput, Op: "correct", Message: err.Error(), Err: err})
		return
	}
	vc, rep, version, err := lw.Correct(r.Context(), r.PathValue("vid"), crit, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	body, err := correctResponseBody(vc, rep)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LiveCorrectResponse{Version: version, Correct: body})
}

func (s *Server) handleViewLineage(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	lw, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req LineageRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	res, err := lw.Lineage(r.PathValue("vid"), req.Task)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeLenientBody is decodeBody tolerating an empty body (endpoints
// whose request fields are all optional).
func decodeLenientBody(w http.ResponseWriter, r *http.Request, dst any) error {
	err := decodeBody(w, r, dst)
	if err != nil && errors.Is(err, io.EOF) {
		return nil
	}
	return err
}
