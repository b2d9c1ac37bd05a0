package runs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"wolves/internal/binwire"
	"wolves/internal/bitset"
	"wolves/internal/engine"
	"wolves/internal/jsonwire/jsonwiretest"
	"wolves/internal/workflow"
)

// This file keeps the string-based ingest path that the span decoders
// replaced, as the reference they are pinned to: JSON documents and
// NDJSON records decode through encoding/json into the string-field
// shapes (exactly what the string-per-field JSON decoder produced — it
// was differentially fuzzed against encoding/json), binary documents
// through the string-per-field binary decoder below, and refBuildRun is
// the string interning loop: one Go string per ID, a map index and the
// used pairs (refRun). TestIngestMatchesStringReference and the ingest
// fuzz targets require both paths to agree on acceptance, error code
// and message, everything a Run answers through its accessors
// (compareRuns), the RunInfo and the canonical document bytes.

// jsonRun is the string-field shape of one run document (wireRun).
type jsonRun struct {
	Run         string           `json:"run"`
	Version     uint64           `json:"version,omitempty"`
	Invocations []jsonInvocation `json:"invocations,omitempty"`
	Artifacts   []jsonArtifact   `json:"artifacts,omitempty"`
	Used        []jsonUsed       `json:"used,omitempty"`
}

type jsonInvocation struct {
	ID   string `json:"id"`
	Task string `json:"task"`
}

type jsonArtifact struct {
	ID          string `json:"id"`
	GeneratedBy string `json:"generated_by,omitempty"`
}

type jsonUsed struct {
	Process  string `json:"process"`
	Artifact string `json:"artifact"`
}

// jsonLine is the string-field shape of one NDJSON record (wireLine).
type jsonLine struct {
	Run        string          `json:"run,omitempty"`
	Invocation *jsonInvocation `json:"invocation,omitempty"`
	Artifact   *jsonArtifact   `json:"artifact,omitempty"`
	Used       *jsonUsed       `json:"used,omitempty"`
}

// refDecodeDoc decodes one run document of either encoding into the
// string shape.
func refDecodeDoc(doc []byte) (*jsonRun, error) {
	w := &jsonRun{}
	if len(doc) > 0 && doc[0] == docBinV1 {
		return w, refDecodeBinary(w, doc)
	}
	return w, json.Unmarshal(doc, w)
}

// refDecodeBinary is the string-per-field binary run-document decoder.
func refDecodeBinary(w *jsonRun, doc []byte) error {
	r := binwire.NewReader(doc[1:])
	w.Version = r.Uvarint()
	w.Run = r.String()
	if n := r.Len(2); n > 0 {
		for i := 0; i < n; i++ {
			w.Invocations = append(w.Invocations, jsonInvocation{ID: r.String(), Task: r.String()})
		}
	}
	if n := r.Len(2); n > 0 {
		for i := 0; i < n; i++ {
			a := jsonArtifact{ID: r.String()}
			gen := r.Uvarint()
			if r.Err() == nil && gen > 0 {
				gi := int(gen - 1)
				if gi >= len(w.Invocations) {
					return fmt.Errorf("binary run document: artifact %q generated_by index %d out of range", a.ID, gi)
				}
				a.GeneratedBy = w.Invocations[gi].ID
			}
			w.Artifacts = append(w.Artifacts, a)
		}
	}
	if n := r.Len(2); n > 0 {
		for i := 0; i < n; i++ {
			pi, ai := r.Uvarint(), r.Uvarint()
			if r.Err() != nil {
				break
			}
			if pi >= uint64(len(w.Invocations)) || ai >= uint64(len(w.Artifacts)) {
				return fmt.Errorf("binary run document: used edge %d index out of range", i)
			}
			w.Used = append(w.Used, jsonUsed{Process: w.Invocations[pi].ID, Artifact: w.Artifacts[ai].ID})
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("binary run document: %w", err)
	}
	return nil
}

// refNDJSON frames and folds an NDJSON stream the way IngestNDJSON
// does, one encoding/json decode per line. decodeErr reports a
// rejection by the line decoder.
func refNDJSON(stream []byte) (w *jsonRun, err *engine.Error, decodeErr bool) {
	w = &jsonRun{}
	lineNo := 0
	for len(stream) > 0 {
		line := stream
		torn := true
		if i := bytes.IndexByte(stream, '\n'); i >= 0 {
			line, stream, torn = stream[:i+1], stream[i+1:], false
		} else {
			stream = nil
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		lineNo++
		var rec jsonLine
		if jerr := json.Unmarshal(trimmed, &rec); jerr != nil {
			if torn {
				return nil, errf(engine.ErrInvalidTrace, "ingest",
					"NDJSON stream ends with a torn record at line %d: %v", lineNo, jerr), true
			}
			return nil, errf(engine.ErrInvalidTrace, "ingest", "NDJSON line %d: %v", lineNo, jerr), true
		}
		if aerr := refAccumulate(w, &rec, lineNo); aerr != nil {
			return nil, aerr, false
		}
	}
	return w, nil, false
}

// refAccumulate is the string-shape NDJSON fold.
func refAccumulate(w *jsonRun, rec *jsonLine, lineNo int) *engine.Error {
	set := 0
	if rec.Run != "" {
		set++
		if w.Run != "" && w.Run != rec.Run {
			return errf(engine.ErrInvalidTrace, "ingest",
				"NDJSON line %d: run id %q conflicts with %q", lineNo, rec.Run, w.Run)
		}
		w.Run = rec.Run
	}
	if rec.Invocation != nil {
		set++
		w.Invocations = append(w.Invocations, *rec.Invocation)
	}
	if rec.Artifact != nil {
		set++
		w.Artifacts = append(w.Artifacts, *rec.Artifact)
	}
	if rec.Used != nil {
		set++
		w.Used = append(w.Used, *rec.Used)
	}
	if set == 0 {
		return errf(engine.ErrInvalidTrace, "ingest",
			"NDJSON line %d: record declares none of run/invocation/artifact/used", lineNo)
	}
	return nil
}

// refCheckRun is buildRun's pre-build validation (batch documents
// prefix their messages, see IngestBatchCtx).
func refCheckRun(w *jsonRun, batchIdx int) *engine.Error {
	if w.Run == "" {
		if batchIdx >= 0 {
			return errf(engine.ErrInvalidTrace, "ingest",
				"batch document %d: run document missing run id", batchIdx)
		}
		return errf(engine.ErrInvalidTrace, "ingest", "run document missing run id")
	}
	if len(w.Artifacts) == 0 && len(w.Invocations) == 0 {
		return errf(engine.ErrInvalidTrace, "ingest",
			"run %q is empty: no invocations and no artifacts", w.Run)
	}
	return nil
}

// refRun is the string model of an interned run: one Go string per ID,
// a map from artifact ID to index, and the used pairs in document order.
type refRun struct {
	id       string
	version  uint64
	wf       *workflow.Workflow // the task space the run was validated against
	procID   []string
	procTask []int32
	artID    []string
	artGen   []int32
	artIdx   map[string]int32
	used     [][2]int32
	invoked  *bitset.Set
	doc      []byte
}

// info is Run.info of the model.
func (r *refRun) info(workflowID string) RunInfo {
	return RunInfo{
		Run: r.id, Workflow: workflowID, Version: r.version,
		Invocations: len(r.procID), Artifacts: len(r.artID), UsedEdges: len(r.used),
		TasksInvoked: r.invoked.Count(), Bytes: int64(len(r.doc)),
	}
}

// appendDoc is the binary canonical encoder over the model.
func (r *refRun) appendDoc(dst []byte) []byte {
	dst = append(dst, docBinV1)
	dst = binwire.AppendUvarint(dst, r.version)
	dst = binwire.AppendString(dst, r.id)
	dst = binwire.AppendUvarint(dst, uint64(len(r.procID)))
	for i, id := range r.procID {
		dst = binwire.AppendString(dst, id)
		dst = binwire.AppendString(dst, r.wf.Task(int(r.procTask[i])).ID)
	}
	dst = binwire.AppendUvarint(dst, uint64(len(r.artID)))
	for i, id := range r.artID {
		dst = binwire.AppendString(dst, id)
		dst = binwire.AppendUvarint(dst, uint64(r.artGen[i]+1))
	}
	dst = binwire.AppendUvarint(dst, uint64(len(r.used)))
	for _, e := range r.used {
		dst = binwire.AppendUvarint(dst, uint64(e[0]))
		dst = binwire.AppendUvarint(dst, uint64(e[1]))
	}
	return dst
}

// witness is appendWitness over the model: a breadth-first backward
// walk from artifact ai over wasGeneratedBy and, once per invocation,
// its used edges in document order.
func (r *refRun) witness(ai int32) []WhyEdge {
	var out []WhyEdge
	seenArt, seenProc := map[int32]bool{ai: true}, map[int32]bool{}
	for queue := []int32{ai}; len(queue) > 0; queue = queue[1:] {
		a := queue[0]
		g := r.artGen[a]
		if g < 0 {
			continue
		}
		out = append(out, WhyEdge{Relation: "wasGeneratedBy", Process: r.procID[g], Artifact: r.artID[a]})
		if seenProc[g] {
			continue
		}
		seenProc[g] = true
		for _, e := range r.used {
			if e[0] != g {
				continue
			}
			out = append(out, WhyEdge{Relation: "used", Process: r.procID[g], Artifact: r.artID[e[1]]})
			if !seenArt[e[1]] {
				seenArt[e[1]] = true
				queue = append(queue, e[1])
			}
		}
	}
	return out
}

// refBuildRun is the string-based buildRun: validate against wf's
// task space and intern, one map insertion and one string per ID. The
// canonical document is rawDoc when non-nil, the binary encoding
// otherwise.
func refBuildRun(wf *workflow.Workflow, version uint64, w *jsonRun, rawDoc []byte) (*refRun, *engine.Error) {
	run := &refRun{
		id:      w.Run,
		version: version,
		wf:      wf,
		artIdx:  make(map[string]int32, len(w.Artifacts)),
		invoked: bitset.New(wf.N()),
	}
	implicit := len(w.Invocations) == 0
	procIdx := make(map[string]int32)

	addProc := func(id string, task int) int32 {
		pi := int32(len(run.procID))
		procIdx[id] = pi
		run.procID = append(run.procID, id)
		run.procTask = append(run.procTask, int32(task))
		run.invoked.Set(task)
		return pi
	}
	for i, inv := range w.Invocations {
		if inv.ID == "" {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: invocation %d has an empty id", w.Run, i)
		}
		if _, dup := procIdx[inv.ID]; dup {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: duplicate invocation id %q", w.Run, inv.ID)
		}
		ti, ok := wf.Index(inv.Task)
		if !ok {
			return nil, traceErr(w.Run, fmt.Errorf("invocation %q: %w: %q",
				inv.ID, workflow.ErrUnknownTask, inv.Task))
		}
		addProc(inv.ID, ti)
	}
	resolve := func(ref, whereFmt, whereArg string) (int32, *engine.Error) {
		if pi, ok := procIdx[ref]; ok {
			return pi, nil
		}
		if !implicit {
			return 0, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: %s references unknown invocation %q",
				w.Run, fmt.Sprintf(whereFmt, whereArg), ref)
		}
		ti, ok := wf.Index(ref)
		if !ok {
			return 0, traceErr(w.Run, fmt.Errorf("%s: %w: %q",
				fmt.Sprintf(whereFmt, whereArg), workflow.ErrUnknownTask, ref))
		}
		return addProc(ref, ti), nil
	}
	for i, a := range w.Artifacts {
		if a.ID == "" {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: artifact %d has an empty id", w.Run, i)
		}
		if _, dup := run.artIdx[a.ID]; dup {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: duplicate artifact id %q", w.Run, a.ID)
		}
		gen := int32(-1)
		if a.GeneratedBy != "" {
			pi, gerr := resolve(a.GeneratedBy, "artifact %q generated_by", a.ID)
			if gerr != nil {
				return nil, gerr
			}
			gen = pi
		}
		run.artIdx[a.ID] = int32(len(run.artID))
		run.artID = append(run.artID, a.ID)
		run.artGen = append(run.artGen, gen)
	}
	for _, u := range w.Used {
		pi, uerr := resolve(u.Process, "used edge for artifact %q", u.Artifact)
		if uerr != nil {
			return nil, uerr
		}
		ai, ok := run.artIdx[u.Artifact]
		if !ok {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: dangling used edge: process %q consumes unknown artifact %q",
				w.Run, u.Process, u.Artifact)
		}
		run.used = append(run.used, [2]int32{pi, ai})
	}
	if rawDoc != nil {
		run.doc = rawDoc
	} else {
		run.doc = run.appendDoc(nil)
	}
	return run, nil
}

// refOutcome is what the reference path made of one ingest: the built
// runs on acceptance, the typed error on rejection. decodeErr marks a
// rejection by the decoder, whose messages quote encoding/json's errors
// and so are compared by code only.
type refOutcome struct {
	runs      []*refRun
	err       *engine.Error
	decodeErr bool
}

// refIngestDoc is the reference of Store.Ingest for one document.
func refIngestDoc(wf *workflow.Workflow, version uint64, doc []byte) refOutcome {
	w, err := refDecodeDoc(doc)
	if err != nil {
		return refOutcome{err: errf(engine.ErrInvalidTrace, "ingest", "malformed run document: %v", err), decodeErr: true}
	}
	return refIngestWire(wf, version, w, -1, nil)
}

// refIngestWire validates and builds one decoded run.
func refIngestWire(wf *workflow.Workflow, version uint64, w *jsonRun, batchIdx int, rawDoc []byte) refOutcome {
	if cerr := refCheckRun(w, batchIdx); cerr != nil {
		return refOutcome{err: cerr}
	}
	run, berr := refBuildRun(wf, version, w, rawDoc)
	if berr != nil {
		return refOutcome{err: berr}
	}
	return refOutcome{runs: []*refRun{run}}
}

// refIngestBatch is the reference of Store.IngestBatch.
func refIngestBatch(wf *workflow.Workflow, version uint64, docs [][]byte) refOutcome {
	var out refOutcome
	for i, doc := range docs {
		w, err := refDecodeDoc(doc)
		if err != nil {
			return refOutcome{err: errf(engine.ErrInvalidTrace, "ingest",
				"batch document %d: malformed run document: %v", i, err), decodeErr: true}
		}
		o := refIngestWire(wf, version, w, i, nil)
		if o.err != nil {
			return o
		}
		out.runs = append(out.runs, o.runs...)
	}
	return out
}

// refRestore is the reference of Store.RestoreRun: the document's own
// version stamp wins, and its bytes are retained verbatim unless it
// lacks a run ID.
func refRestore(wf *workflow.Workflow, version uint64, workflowID, runID string, doc []byte) refOutcome {
	w, err := refDecodeDoc(doc)
	if err != nil {
		return refOutcome{err: errf(engine.ErrInvalidTrace, "restore", "run %q of workflow %q: %v", runID, workflowID, err),
			decodeErr: true}
	}
	raw := doc
	if w.Run == "" {
		w.Run, raw = runID, nil
	}
	if w.Version != 0 {
		version = w.Version
	}
	return refIngestWire(wf, version, w, -1, raw)
}

// compareOutcome fails unless the store's result of one ingest (err,
// and the runs it now holds under wantIDs' order) matches the
// reference outcome: the same acceptance, code and message, and
// identical runs, infos and canonical documents.
func compareOutcome(t *testing.T, what string, s *Store, workflowID string, gotErr error, infos []RunInfo, want refOutcome) {
	t.Helper()
	if (gotErr == nil) != (want.err == nil) {
		t.Fatalf("%s: acceptance diverges from the string reference:\n  got:  %v\n  want: %v", what, gotErr, want.err)
	}
	if gotErr != nil {
		var ee *engine.Error
		if !errors.As(gotErr, &ee) {
			t.Fatalf("%s: rejection is not a typed *engine.Error: %v", what, gotErr)
		}
		if ee.Code != want.err.Code || (!want.decodeErr && ee.Message != want.err.Message) {
			t.Fatalf("%s: rejection diverges from the string reference:\n  got:  %s %q\n  want: %s %q",
				what, ee.Code, ee.Message, want.err.Code, want.err.Message)
		}
		return
	}
	if len(infos) != len(want.runs) {
		t.Fatalf("%s: %d infos, reference built %d runs", what, len(infos), len(want.runs))
	}
	for i, ref := range want.runs {
		lw, got, err := s.lookup(workflowID, ref.id)
		if err != nil {
			t.Fatalf("%s: reference run %q not in the store: %v", what, ref.id, err)
		}
		ep, _, err := lw.Read("")
		if err != nil {
			t.Fatal(err)
		}
		// A batch may carry one run ID twice; the store keeps the last.
		if slices.IndexFunc(want.runs[i+1:], func(r *refRun) bool { return r.id == ref.id }) < 0 {
			compareRuns(t, what, got, ref, ep)
		}
		wantInfo := ref.info(workflowID)
		gotInfo := infos[i]
		gotInfo.Replaced = false
		if gotInfo != wantInfo {
			t.Fatalf("%s: RunInfo diverges:\n  got:  %+v\n  want: %+v", what, gotInfo, wantInfo)
		}
	}
}

// procIDs lists run r's invocation IDs through its accessors; an
// invocation r stores no ID for is named after its task, taskID(task).
func procIDs(r *Run, taskID func(int) string) []string {
	var ids []string
	for pi, ti := range r.procTask {
		if r.namedInvocations() {
			ids = append(ids, r.invocationID(int32(pi)))
		} else {
			ids = append(ids, taskID(int(ti)))
		}
	}
	return ids
}

// artIDs lists run r's artifact IDs through its accessor.
func artIDs(r *Run) []string {
	var ids []string
	for ai := range r.artGen {
		ids = append(ids, r.artifactID(int32(ai)))
	}
	return ids
}

// compareRuns fails unless got answers through its accessors what the
// string model ref holds: every invocation and artifact ID, every
// artifact lookup — of present IDs, and of absent ones that are
// prefixes or extensions of present ones (s1.2 against s1.20) — the
// used adjacency, every artifact's why-provenance witness (invocations
// named after their tasks through ep), the invoked tasks and the
// canonical document.
func compareRuns(t *testing.T, what string, got *Run, ref *refRun, ep *engine.ReadEpoch) {
	t.Helper()
	eq := func(field string, ok bool) {
		if !ok {
			t.Fatalf("%s: run %q field %s diverges from the string reference:\n  got:  %+v\n  want: %+v",
				what, ref.id, field, got, ref)
		}
	}
	eq("id", got.id == ref.id)
	eq("version", got.version == ref.version)
	eq("n", got.n == ref.wf.N())
	eq("invocation IDs", slices.Equal(procIDs(got, func(u int) string { return ref.wf.Task(u).ID }), ref.procID))
	eq("procTask", slices.Equal(got.procTask, ref.procTask))
	eq("artifact IDs", slices.Equal(artIDs(got), ref.artID))
	eq("artGen", slices.Equal(got.artGen, ref.artGen))
	probe := func(id string) {
		ai, ok := got.artifact(id)
		want, wok := ref.artIdx[id]
		if ok != wok || ok && ai != want {
			t.Fatalf("%s: run %q looks artifact %q up as %d, %v; the reference holds %d, %v",
				what, ref.id, id, ai, ok, want, wok)
		}
	}
	probe("")
	for _, id := range ref.artID {
		probe(id)
		probe(id[:len(id)-1])
		probe(id + "0")
		probe(id + "\x00")
	}
	for _, id := range ref.procID {
		probe(id)
	}
	var wantUsed, gotUsed [][2]int32
	for pi := range ref.procID {
		for _, e := range ref.used {
			if e[0] == int32(pi) {
				wantUsed = append(wantUsed, e)
			}
		}
		if pi+1 < len(got.usedStart) {
			for _, ai := range got.usedArt[got.usedStart[pi]:got.usedStart[pi+1]] {
				gotUsed = append(gotUsed, [2]int32{int32(pi), ai})
			}
		}
	}
	eq("used adjacency", slices.Equal(gotUsed, wantUsed) && len(got.usedStart) == len(ref.procID)+1 &&
		len(got.usedArt) == len(ref.used))
	for ai := range ref.artID {
		if w, want := got.appendWitness(nil, int32(ai), ep), ref.witness(int32(ai)); !slices.Equal(w, want) {
			t.Fatalf("%s: run %q witness of artifact %q diverges from the string reference:\n  got:  %v\n  want: %v",
				what, ref.id, ref.artID[ai], w, want)
		}
	}
	eq("invoked", got.invoked.Equal(ref.invoked))
	var members []int32
	for _, u := range ref.invoked.Members() {
		members = append(members, int32(u))
	}
	eq("invokedList", slices.Equal(got.invokedList, members))
	eq("doc", bytes.Equal(got.doc, ref.doc))
}

// refState returns a private copy of the live workflow's task space and
// its version, for the reference path.
func refState(t *testing.T, reg *engine.Registry, workflowID string) (*workflow.Workflow, uint64) {
	t.Helper()
	lw, err := reg.Get(workflowID)
	if err != nil {
		t.Fatal(err)
	}
	var wf *workflow.Workflow
	var version uint64
	if err := lw.State(func(st *engine.LiveState) error {
		wf, version = st.Workflow.Clone(), st.Version
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return wf, version
}

func infoList(info *RunInfo) []RunInfo {
	if info == nil {
		return nil
	}
	return []RunInfo{*info}
}

// checkIngestAgainstRef ingests doc as one JSON document and as NDJSON
// (when ndjson is non-nil), and restores it, each into a fresh store
// over reg, comparing every outcome with the string reference. An
// accepted document's binary canonical form is restored too, whole and
// with one byte flipped.
func checkIngestAgainstRef(t *testing.T, reg *engine.Registry, workflowID string, doc, ndjson []byte) {
	t.Helper()
	wf, version := refState(t, reg, workflowID)

	s := New(reg)
	info, gerr := s.IngestCtx(context.Background(), workflowID, doc)
	compareOutcome(t, "json", s, workflowID, gerr, infoList(info), refIngestDoc(wf, version, doc))
	restores := [][]byte{doc}
	if gerr == nil {
		_, run, _ := s.lookup(workflowID, info.Run)
		flipped := bytes.Clone(run.doc)
		flipped[len(doc)%len(flipped)] ^= 0x5a
		restores = append(restores, run.doc, flipped)
	}
	if ndjson != nil {
		checkNDJSONAgainstRef(t, reg, workflowID, ndjson)
	}
	for _, rdoc := range restores {
		s := New(reg)
		rerr := s.RestoreRun(workflowID, "restored", rdoc)
		var infos []RunInfo
		if rerr == nil {
			infos, _ = s.Runs(workflowID)
		}
		compareOutcome(t, "restore", s, workflowID, rerr, infos, refRestore(wf, version, workflowID, "restored", rdoc))
	}
}

// checkNDJSONAgainstRef ingests stream into a fresh store over reg and
// compares the outcome with the string reference.
func checkNDJSONAgainstRef(t *testing.T, reg *engine.Registry, workflowID string, stream []byte) {
	t.Helper()
	wf, version := refState(t, reg, workflowID)
	s := New(reg)
	info, gerr := s.IngestNDJSONCtx(context.Background(), workflowID, bytes.NewReader(stream))
	var want refOutcome
	if w, rerr, decodeErr := refNDJSON(stream); rerr != nil {
		want.err, want.decodeErr = rerr, decodeErr
	} else {
		want = refIngestWire(wf, version, w, -1, nil)
	}
	compareOutcome(t, "ndjson", s, workflowID, gerr, infoList(info), want)
}

// refDocGen draws random run documents over a workflow's task IDs, each
// in a JSON and an NDJSON spelling, covering explicit and implicit
// invocations, escapes, non-ASCII and invalid UTF-8, duplicate and empty
// IDs, unknown tasks and invocations, dangling edges, nulls, case-folded
// and unknown keys, and truncation.
type refDocGen struct {
	rng   *rand.Rand
	tasks []string
}

// lit spells s as a JSON string literal: escaping only what JSON
// requires, or \u-escaping every ASCII byte. Bytes past ASCII go raw, so
// invalid UTF-8 reaches both decoders as is.
func (g *refDocGen) lit(s string) string {
	escapeAll := g.rng.Intn(4) == 0
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < utf8.RuneSelf && escapeAll, c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// key spells a field name, now and then in a case-folded variant.
func (g *refDocGen) key(name string) string {
	if g.rng.Intn(12) == 0 {
		name = strings.ToUpper(name)
	}
	return `"` + name + `":`
}

// id draws an ID from a pool of the given size, so duplicates happen,
// now and then with an awkward tail or empty.
func (g *refDocGen) id(prefix string, pool int) string {
	s := fmt.Sprintf("%s%d", prefix, g.rng.Intn(pool))
	switch g.rng.Intn(14) {
	case 0:
		s += "é"
	case 1:
		s += "\xff" // decodes to U+FFFD, as does any invalid byte
	case 2:
		s += "\xfe"
	case 3:
		s += `"q\`
	case 4:
		s += "\n"
	case 5:
		s = ""
	}
	return s
}

func (g *refDocGen) task() string {
	if g.rng.Intn(25) == 0 {
		return "ghost"
	}
	return g.tasks[g.rng.Intn(len(g.tasks))]
}

// doc returns one random document in its JSON and NDJSON forms.
func (g *refDocGen) doc() (doc, ndjson []byte) {
	r := g.rng
	var fields, lines []string
	obj := func(kv ...string) string {
		return "{" + strings.Join(kv, ",") + "}"
	}
	if r.Intn(12) != 0 {
		run := g.lit(g.id("run", 3))
		fields = append(fields, g.key("run")+run)
		lines = append(lines, obj(g.key("run")+run))
	}
	if r.Intn(8) == 0 {
		fields = append(fields, g.key("version")+fmt.Sprint(r.Intn(5)))
	}
	explicit := r.Intn(2) == 0
	var invs []string
	if explicit {
		n := 1 + r.Intn(6)
		var elems []string
		for i := 0; i < n; i++ {
			if r.Intn(15) == 0 {
				elems = append(elems, "null")
				continue
			}
			id := g.id("i", n+2)
			invs = append(invs, id)
			o := obj(g.key("id")+g.lit(id), g.key("task")+g.lit(g.task()))
			elems = append(elems, o)
			lines = append(lines, obj(g.key("invocation")+o))
		}
		fields = append(fields, g.key("invocations")+"["+strings.Join(elems, ",")+"]")
	} else if r.Intn(6) == 0 {
		fields = append(fields, g.key("invocations")+"null")
	}
	proc := func() string {
		switch {
		case explicit && len(invs) > 0 && r.Intn(12) != 0:
			return invs[r.Intn(len(invs))]
		case explicit:
			return g.id("i", 4)
		}
		return g.task()
	}
	var arts []string
	na := r.Intn(10)
	var elems []string
	for i := 0; i < na; i++ {
		id := g.id("a", 2*na+1)
		arts = append(arts, id)
		kv := []string{g.key("id") + g.lit(id)}
		switch r.Intn(6) {
		case 0: // an external input
		case 1:
			kv = append(kv, g.key("generated_by")+"null")
		default:
			kv = append(kv, g.key("generated_by")+g.lit(proc()))
		}
		if r.Intn(10) == 0 {
			kv = append(kv, `"extra":[1,{"x":null},"s"]`)
		}
		r.Shuffle(len(kv), func(i, j int) { kv[i], kv[j] = kv[j], kv[i] })
		o := obj(kv...)
		elems = append(elems, o)
		lines = append(lines, obj(g.key("artifact")+o))
	}
	if na > 0 || r.Intn(4) == 0 {
		fields = append(fields, g.key("artifacts")+"["+strings.Join(elems, ",")+"]")
	}
	elems = elems[:0]
	for i, nu := 0, r.Intn(10); i < nu; i++ {
		art := g.id("a", 3)
		if len(arts) > 0 && r.Intn(8) != 0 {
			art = arts[r.Intn(len(arts))]
		}
		o := obj(g.key("process")+g.lit(proc()), g.key("artifact")+g.lit(art))
		elems = append(elems, o)
		lines = append(lines, obj(g.key("used")+o))
	}
	if len(elems) > 0 {
		fields = append(fields, g.key("used")+"["+strings.Join(elems, ",")+"]")
	}
	if r.Intn(10) == 0 {
		fields = append(fields, `"unknown":{"a":[true,false,1.5e3]}`)
	}
	if r.Intn(4) == 0 {
		// A second run record: the same ID is fine, another conflicts.
		lines = append(lines, obj(g.key("run")+g.lit(g.id("run", 3))))
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	r.Shuffle(len(lines), func(i, j int) {
		// The run record may sit anywhere in the stream.
		lines[i], lines[j] = lines[j], lines[i]
	})
	doc = []byte(obj(fields...))
	nd := []byte(strings.Join(lines, "\n"))
	if r.Intn(2) == 0 {
		nd = append(nd, '\n')
	}
	if r.Intn(15) == 0 {
		doc = doc[:r.Intn(len(doc))]
	}
	if r.Intn(15) == 0 && len(nd) > 0 {
		nd = nd[:r.Intn(len(nd))]
	}
	return doc, nd
}

// TestIngestMatchesStringReference pins the span decoders and the
// byte-resolving buildRun to the string path they replaced: over random
// documents and the decoder's corner cases, single-document JSON,
// NDJSON, batches and RestoreRun (of the JSON document, of an accepted
// run's binary canonical document, and of a corrupted copy of it) must
// agree with the reference on acceptance, error code and message,
// everything the run answers through its accessors, the RunInfo and the
// canonical bytes.
func TestIngestMatchesStringReference(t *testing.T) {
	_, reg := figure1Store(t)
	wf, version := refState(t, reg, "phylo")
	g := &refDocGen{rng: rand.New(rand.NewSource(15)), tasks: wf.IDs()}
	accepted := 0
	for i := 0; i < 1500; i++ {
		doc, nd := g.doc()
		checkIngestAgainstRef(t, reg, "phylo", doc, nd)
		if _, err := New(reg).IngestCtx(context.Background(), "phylo", doc); err == nil {
			accepted++
		}
	}
	// Rejections dominate random documents; make sure enough are
	// accepted for the Run comparison to mean something.
	if accepted < 150 {
		t.Fatalf("only %d of 1500 random documents accepted", accepted)
	}
	for _, s := range jsonwiretest.Seeds {
		checkIngestAgainstRef(t, reg, "phylo", []byte(s), []byte(s))
	}
	checkIngestAgainstRef(t, reg, "phylo", figure1RunDoc("fig1"), nil)

	for i := 0; i < 300; i++ {
		docs := make([][]byte, 1+g.rng.Intn(8))
		for j := range docs {
			docs[j], _ = g.doc()
			if g.rng.Intn(3) != 0 {
				// Mostly acceptable members, so whole batches pass too.
				docs[j] = figure1RunDoc(fmt.Sprintf("b%d", g.rng.Intn(6)))
			}
		}
		s := New(reg)
		infos, err := s.IngestBatchCtx(context.Background(), "phylo", docs)
		compareOutcome(t, "batch", s, "phylo", err, infos, refIngestBatch(wf, version, docs))
	}
}

// TestIngestPrefixIDsMatchStringReference pins artifact lookups among
// IDs that are prefixes and extensions of one another (s1.2 absent
// beside s1.20 and s1.200) to the string reference, in an implicit run,
// an explicit one and an explicit one whose invocations are named after
// their tasks, and in their JSON-era and binary restores. Only invocation
// IDs that differ from their task's are stored.
func TestIngestPrefixIDsMatchStringReference(t *testing.T) {
	_, reg := figure1Store(t)
	const arts = `"artifacts":[{"id":"s1.20","generated_by":%[1]q},{"id":"s1.2x"},` +
		`{"id":"s1.200","generated_by":%[2]q},{"id":"s1.3","generated_by":%[1]q}],` +
		`"used":[{"process":%[2]q,"artifact":"s1.20"},{"process":%[1]q,"artifact":"s1.200"}]`
	for _, tc := range []struct {
		doc   string
		named bool
	}{
		{`{"run":"s1",` + fmt.Sprintf(arts, "1", "2") + `}`, false},
		{`{"run":"s1","invocations":[{"id":"s1.2","task":"1"},{"id":"s1.21","task":"2"}],` +
			fmt.Sprintf(arts, "s1.2", "s1.21") + `}`, true},
		{`{"run":"s1","invocations":[{"id":"1","task":"1"},{"id":"2","task":"2"}],` +
			fmt.Sprintf(arts, "1", "2") + `}`, false},
	} {
		checkIngestAgainstRef(t, reg, "phylo", []byte(tc.doc), nil)
		s := New(reg)
		if _, err := s.IngestCtx(context.Background(), "phylo", []byte(tc.doc)); err != nil {
			t.Fatal(err)
		}
		_, run, _ := s.lookup("phylo", "s1")
		restored := New(reg)
		if err := restored.RestoreRun("phylo", "s1", run.Doc()); err != nil {
			t.Fatal(err)
		}
		_, back, _ := restored.lookup("phylo", "s1")
		if run.namedInvocations() != tc.named || back.namedInvocations() != tc.named {
			t.Fatalf("%s: run stores invocation IDs %v, restored %v; want %v",
				tc.doc, run.namedInvocations(), back.namedInvocations(), tc.named)
		}
	}
}
