package runs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"wolves/internal/bitset"
	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/workflow"
)

// This file implements trace ingestion: decoding the OPM-style wire
// formats (one JSON document, or an NDJSON stream of records), validating
// every record against the workflow's task space, and interning the
// result into the dense Run representation. Every rejection is a typed
// engine.Error with code ErrInvalidTrace (wolvesd: 422) — malformed
// input must never panic or surface as internal.
//
// The decode and build state is pooled (ingestScratch): at steady state
// an ingest allocates only what the immutable Run retains, so a
// sustained NDJSON firehose does not churn the heap per document.

// wireInvocation is one process of the trace: an invocation of a
// workflow task.
type wireInvocation struct {
	ID   string `json:"id"`
	Task string `json:"task"`
}

// wireArtifact is one data item. GeneratedBy names the producing
// invocation (or, when the trace declares no invocations, the producing
// task); empty means an external input to the run.
type wireArtifact struct {
	ID          string `json:"id"`
	GeneratedBy string `json:"generated_by,omitempty"`
}

// wireUsed is one consumption edge: Process (an invocation — or task,
// see above) read Artifact.
type wireUsed struct {
	Process  string `json:"process"`
	Artifact string `json:"artifact"`
}

// wireRun is the JSON document shape of one run. When Invocations is
// empty, process references (generated_by, used.process) name workflow
// tasks directly and one implicit invocation is created per referenced
// task — the paper's own simplification, and the natural encoding for
// Execute-style traces.
type wireRun struct {
	Run string `json:"run"`
	// Version is ingestion metadata, not part of the trace: the workflow
	// version the run was validated against. Client-supplied values are
	// ignored on live ingestion; the canonical document records it so
	// recovery restores runs with their original version stamp.
	Version     uint64           `json:"version,omitempty"`
	Invocations []wireInvocation `json:"invocations,omitempty"`
	Artifacts   []wireArtifact   `json:"artifacts,omitempty"`
	Used        []wireUsed       `json:"used,omitempty"`
}

// NDJSON framing limits. The line cap equals the HTTP layer's request
// body cap (server.MaxBodyBytes — a compile-time assertion there ties
// the two), so no request a client can legally send is rejected by the
// cap; what the cap bounds is the spill buffer a single over-long line
// can pin, when the store is fed from a non-HTTP source.
const (
	// MaxNDJSONLineBytes caps one NDJSON line; longer lines reject the
	// run with a typed bad_input error.
	MaxNDJSONLineBytes = 8 << 20
	// ndjsonBufBytes sizes the pooled stream reader: lines that fit are
	// framed with zero copies, longer ones spill.
	ndjsonBufBytes = 64 << 10
	// ndjsonSpillKeep caps the spill capacity retained in the pool; a
	// rare multi-megabyte line must not pin its buffer forever.
	ndjsonSpillKeep = 1 << 20
)

// ingestScratch recycles the per-ingest working set: the decoded wire
// run (slice capacities survive), the build-time invocation index, the
// CSR fill cursor, the binary-doc encode buffer, and the NDJSON stream
// reader. One scratch serves one ingest at a time, whole batches
// included.
type ingestScratch struct {
	w        wireRun
	line     wireLine
	jd       jdec
	lineBufs wireLineBufs
	procIdx  map[string]int32
	fill     []int32
	enc      []byte
	br       *bufio.Reader
	spill    []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{
		procIdx: make(map[string]int32, 64),
		br:      bufio.NewReaderSize(nil, ndjsonBufBytes),
	}
}}

// wire resets and returns the scratch's wire run, keeping the slice
// capacities of previous decodes so the backing arrays are reused. Only
// the lengths are reset: both decoders write every field of an element
// they emit past the reset length (the JSON decoder appends explicit
// zero elements before filling them, the binary decoder appends full
// composite literals), so nothing stale from a previous document can
// leak through.
func (sc *ingestScratch) wire() *wireRun {
	sc.w = wireRun{
		Invocations: sc.w.Invocations[:0],
		Artifacts:   sc.w.Artifacts[:0],
		Used:        sc.w.Used[:0],
	}
	return &sc.w
}

// decodeRunDocInto parses one full run document — the binary canonical
// form when the first byte is its version tag, JSON otherwise — into w.
func decodeRunDocInto(w *wireRun, doc []byte) error {
	if len(doc) > 0 && doc[0] == docBinV1 {
		return decodeRunDocBinaryInto(w, doc)
	}
	var d jdec
	return d.decodeRunDocJSON(w, doc)
}

// decodeDoc is decodeRunDocInto through the pooled decoder scratch —
// the hot ingestion paths, where the unquote buffer is reused across
// documents.
func (sc *ingestScratch) decodeDoc(w *wireRun, doc []byte) error {
	if len(doc) > 0 && doc[0] == docBinV1 {
		return decodeRunDocBinaryInto(w, doc)
	}
	return sc.jd.decodeRunDocJSON(w, doc)
}

// decodeRunDoc parses one full run document of either encoding.
func decodeRunDoc(doc []byte) (*wireRun, error) {
	var w wireRun
	if err := decodeRunDocInto(&w, doc); err != nil {
		return nil, err
	}
	return &w, nil
}

// Ingest validates and stores one run document for workflowID,
// journaling it when a journal is installed. Re-ingesting an existing
// run ID replaces the run (idempotent, which is also what makes WAL
// replay safe). The returned info carries the workflow version the run
// was validated against.
func (s *Store) Ingest(workflowID string, doc []byte) (*RunInfo, error) {
	return s.IngestCtx(context.Background(), workflowID, doc) //lint:allow ctxpass compat wrapper anchors its own root
}

// IngestCtx is Ingest with the request context: ctx carries the trace
// span into the journal append and is observability-only.
func (s *Store) IngestCtx(ctx context.Context, workflowID string, doc []byte) (*RunInfo, error) {
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)
	w := sc.wire()
	if err := sc.decodeDoc(w, doc); err != nil {
		return nil, errf(engine.ErrInvalidTrace, "ingest", "malformed run document: %v", err)
	}
	return s.ingestWire(ctx, workflowID, w, true, nil, sc)
}

// wireLine is one NDJSON record: exactly one of the fields is set.
type wireLine struct {
	Run        string          `json:"run,omitempty"`
	Invocation *wireInvocation `json:"invocation,omitempty"`
	Artifact   *wireArtifact   `json:"artifact,omitempty"`
	Used       *wireUsed       `json:"used,omitempty"`
}

// IngestNDJSON streams one run from r: each line is a JSON record
// declaring the run ID, an invocation, an artifact or a used edge.
// A final line torn mid-record (a client crash or truncated upload)
// rejects the whole run with ErrInvalidTrace — runs are atomic, never
// partially ingested. A single line longer than MaxNDJSONLineBytes
// rejects the run with ErrBadInput.
func (s *Store) IngestNDJSON(workflowID string, r io.Reader) (*RunInfo, error) {
	return s.IngestNDJSONCtx(context.Background(), workflowID, r) //lint:allow ctxpass compat wrapper anchors its own root
}

// IngestNDJSONCtx is IngestNDJSON with the request context (see
// IngestCtx).
func (s *Store) IngestNDJSONCtx(ctx context.Context, workflowID string, r io.Reader) (*RunInfo, error) {
	sc := scratchPool.Get().(*ingestScratch)
	sc.br.Reset(r)
	defer func() {
		sc.br.Reset(nil) // drop the request body before pooling
		if cap(sc.spill) > ndjsonSpillKeep {
			sc.spill = nil
		}
		scratchPool.Put(sc)
	}()
	w := sc.wire()
	lineNo := 0
	for {
		// ReadSlice frames a line with zero copies when it fits the
		// reader's buffer — the overwhelmingly common case; an over-full
		// line accumulates into the capped spill buffer.
		line, err := sc.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			sc.spill = append(sc.spill[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = sc.br.ReadSlice('\n')
				sc.spill = append(sc.spill, line...)
				if len(sc.spill) > MaxNDJSONLineBytes {
					return nil, errf(engine.ErrBadInput, "ingest",
						"NDJSON line %d exceeds the %d-byte line cap", lineNo+1, MaxNDJSONLineBytes)
				}
			}
			line = sc.spill
		}
		if err != nil && err != io.EOF {
			// A read failure (connection drop, body-size cap) is the
			// request's problem, not the trace's: bad_input → 400, matching
			// what the whole-document path reports for the same condition.
			return nil, errf(engine.ErrBadInput, "ingest", "reading NDJSON stream: %v", err)
		}
		torn := err == io.EOF && len(line) > 0 && line[len(line)-1] != '\n'
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			lineNo++
			sc.line = wireLine{}
			if jerr := sc.jd.decodeWireLineJSON(&sc.line, trimmed, &sc.lineBufs); jerr != nil {
				if torn {
					return nil, errf(engine.ErrInvalidTrace, "ingest",
						"NDJSON stream ends with a torn record at line %d: %v", lineNo, jerr)
				}
				return nil, errf(engine.ErrInvalidTrace, "ingest", "NDJSON line %d: %v", lineNo, jerr)
			}
			if aerr := accumulate(w, &sc.line, lineNo); aerr != nil {
				return nil, aerr
			}
		}
		if err == io.EOF {
			break
		}
	}
	return s.ingestWire(ctx, workflowID, w, true, nil, sc)
}

// accumulate folds one NDJSON record into the run under construction.
func accumulate(w *wireRun, rec *wireLine, lineNo int) *engine.Error {
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

// ingestWire is the shared ingestion path: validate + intern under the
// workflow's read lock, insert into the shard, journal, snapshot.
// rawDoc, when non-nil, is an already-canonical document to retain
// verbatim (the restore path — keeps recovered runs byte-identical).
func (s *Store) ingestWire(ctx context.Context, workflowID string, w *wireRun, journal bool, rawDoc []byte, sc *ingestScratch) (*RunInfo, error) {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "runs", "ingest")
	defer span.End()
	span.SetAttr("workflow", workflowID)
	span.SetAttr("run", w.Run)
	lw, err := s.reg.Get(workflowID)
	if err != nil {
		return nil, wrapErr("ingest", err)
	}
	// Degraded gate, checked before any state is touched: an ingest
	// rejected here leaves no partial run anywhere. (Only live ingests
	// are gated; the restore path replays already-durable documents.)
	if journal {
		if gerr := s.reg.CheckWritable("ingest"); gerr != nil {
			return nil, wrapErr("ingest", gerr)
		}
	}
	if w.Run == "" {
		return nil, errf(engine.ErrInvalidTrace, "ingest", "run document missing run id")
	}
	if len(w.Artifacts) == 0 && len(w.Invocations) == 0 {
		return nil, errf(engine.ErrInvalidTrace, "ingest",
			"run %q is empty: no invocations and no artifacts", w.Run)
	}
	// Validation, shard insertion and the journal append all run inside
	// one read-locked State call. The lock is what orders this ingestion
	// against a same-ID re-registration: replacing a workflow close()s
	// the old incarnation under its WRITE lock before the registry
	// journals the new registration record, so a recRun record appended
	// here can never land after the registration record that supersedes
	// its workflow — replay always re-validates the run against the
	// incarnation it was validated against live.
	var run *Run
	var replaced, wantSnap bool
	if err := lw.State(func(st *engine.LiveState) error {
		version := st.Version
		if !journal && w.Version != 0 {
			// Restore path: keep the version stamp the run was originally
			// validated under, so recovered metadata is byte-identical.
			version = w.Version
		}
		r, berr := buildRun(st.Workflow, version, w, rawDoc, sc, s.legacyDocs)
		if berr != nil {
			return berr
		}
		run = r

		sh := s.shardFor(lw)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, replaced = sh.runs[run.id]
		sh.runs[run.id] = run
		if !replaced {
			sh.order = append(sh.order, run.id)
		}
		if journal && s.journal != nil {
			// Journaled under the shard lock so per-run records of one
			// workflow hit the WAL in ingestion order. A journal error
			// leaves the run applied in memory and flips the registry
			// into degraded read-only mode (JournalFault): every later
			// ingest is gated until the background probe resyncs the
			// store — which folds this run into a snapshot — the same
			// contract as the registry's mutations.
			ws, jerr := s.journal.RunIngested(ctx, workflowID, run.id, run.doc)
			if jerr != nil {
				return s.reg.JournalFault("ingest", jerr)
			}
			wantSnap = ws
			s.journaledBytes.Add(int64(len(run.doc)))
		}
		return nil
	}); err != nil {
		return nil, wrapErr("ingest", err)
	}
	s.ingested.Add(1)
	if journal {
		obs.MIngestRuns.Inc()
		obs.MIngestLatency.Observe(time.Since(start).Seconds())
	}

	if wantSnap {
		// The run's WAL growth passed the snapshot trigger: fold the
		// workflow (runs included, via the store's run provider) into a
		// fresh snapshot. Taken outside the shard lock — the provider
		// re-reads the shard.
		if serr := lw.State(func(st *engine.LiveState) error {
			return s.journal.SnapshotWorkflow(ctx, st)
		}); serr != nil && !engine.IsCode(serr, engine.ErrUnknownWorkflow) {
			return nil, wrapErr("ingest", s.reg.JournalFault("ingest", serr))
		}
	}
	info := run.info(workflowID)
	info.Replaced = replaced
	return info, nil
}

// IngestBatch validates and stores a batch of run documents for
// workflowID in one journaled operation: all documents are validated
// and interned first (any rejection rejects the whole batch before any
// state is touched), then inserted and journaled together — through the
// journal's batch append, so one group-commit fsync covers the burst.
// The returned infos are in document order.
func (s *Store) IngestBatch(workflowID string, docs [][]byte) ([]RunInfo, error) {
	return s.IngestBatchCtx(context.Background(), workflowID, docs) //lint:allow ctxpass compat wrapper anchors its own root
}

// IngestBatchCtx is IngestBatch with the request context (see
// IngestCtx).
func (s *Store) IngestBatchCtx(ctx context.Context, workflowID string, docs [][]byte) ([]RunInfo, error) {
	infos := make([]RunInfo, 0, len(docs))
	if len(docs) == 0 {
		return infos, nil
	}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "runs", "ingest.batch")
	defer span.End()
	span.SetAttr("workflow", workflowID)
	lw, err := s.reg.Get(workflowID)
	if err != nil {
		return nil, wrapErr("ingest", err)
	}
	if gerr := s.reg.CheckWritable("ingest"); gerr != nil {
		return nil, wrapErr("ingest", gerr)
	}
	sc := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(sc)

	var wantSnap bool
	if err := lw.State(func(st *engine.LiveState) error {
		version := st.Version
		built := make([]*Run, 0, len(docs))
		for i, doc := range docs {
			w := sc.wire()
			if derr := sc.decodeDoc(w, doc); derr != nil {
				return errf(engine.ErrInvalidTrace, "ingest",
					"batch document %d: malformed run document: %v", i, derr)
			}
			if w.Run == "" {
				return errf(engine.ErrInvalidTrace, "ingest",
					"batch document %d: run document missing run id", i)
			}
			if len(w.Artifacts) == 0 && len(w.Invocations) == 0 {
				return errf(engine.ErrInvalidTrace, "ingest",
					"run %q is empty: no invocations and no artifacts", w.Run)
			}
			r, berr := buildRun(st.Workflow, version, w, nil, sc, s.legacyDocs)
			if berr != nil {
				return berr
			}
			built = append(built, r)
		}
		ids := make([]string, len(built))
		runDocs := make([][]byte, len(built))
		var docBytes int64
		for i, r := range built {
			ids[i], runDocs[i] = r.id, r.doc
			docBytes += int64(len(r.doc))
		}
		sh := s.shardFor(lw)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, r := range built {
			_, replaced := sh.runs[r.id]
			sh.runs[r.id] = r
			if !replaced {
				sh.order = append(sh.order, r.id)
			}
			info := r.info(workflowID)
			info.Replaced = replaced
			infos = append(infos, *info)
		}
		if s.journal != nil {
			// One batch append: contiguous records, one durability wait.
			ws, jerr := s.journal.RunsIngested(ctx, workflowID, ids, runDocs)
			if jerr != nil {
				return s.reg.JournalFault("ingest", jerr)
			}
			wantSnap = ws
			s.journaledBytes.Add(docBytes)
		}
		return nil
	}); err != nil {
		return nil, wrapErr("ingest", err)
	}
	s.ingested.Add(int64(len(docs)))
	obs.MIngestRuns.Add(uint64(len(docs)))
	obs.MIngestLatency.Observe(time.Since(start).Seconds())

	if wantSnap {
		if serr := lw.State(func(st *engine.LiveState) error {
			return s.journal.SnapshotWorkflow(ctx, st)
		}); serr != nil && !engine.IsCode(serr, engine.ErrUnknownWorkflow) {
			return nil, wrapErr("ingest", s.reg.JournalFault("ingest", serr))
		}
	}
	return infos, nil
}

// buildRun validates the wire run against wf's task space and interns it
// into the dense representation. All errors are ErrInvalidTrace-coded
// (wrapping workflow.ErrUnknownTask where a task lookup failed). The
// canonical document is rawDoc verbatim when non-nil (restore path),
// otherwise freshly encoded — binary by default, JSON under the
// legacy-docs knob.
func buildRun(wf *workflow.Workflow, version uint64, w *wireRun, rawDoc []byte,
	sc *ingestScratch, legacyDocs bool) (*Run, *engine.Error) {
	run := &Run{
		id:      w.Run,
		version: version,
		n:       wf.N(),
		artIdx:  make(map[string]int32, len(w.Artifacts)),
		invoked: bitset.New(wf.N()),
	}
	implicit := len(w.Invocations) == 0
	clear(sc.procIdx)
	procIdx := sc.procIdx

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
	// resolve maps a process reference onto a dense invocation index. In
	// implicit mode the reference is a task ID and the invocation is
	// created on first use. The caller's context string is built lazily
	// (whereFmt+whereArg), only on the failure paths — the success path
	// of the hot loops below must not pay a fmt.Sprintf per edge.
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

	// Sorted invoked-task list for the label query path (invocations may
	// arrive in any order and repeat tasks; the bitset dedups).
	run.invoked.ForEach(func(u int) bool {
		run.invokedList = append(run.invokedList, int32(u))
		return true
	})

	// CSR adjacency (artifacts consumed per invocation) for why-provenance
	// walks: O(invocations + used) words, built once at ingestion. counts
	// is retained as run.usedStart; only the fill cursor is scratch.
	counts := make([]int32, len(run.procID)+1)
	for _, e := range run.used {
		counts[e[0]+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	run.usedStart = counts
	run.usedArt = make([]int32, len(run.used))
	fill := sc.fill
	if cap(fill) < len(run.procID) {
		fill = make([]int32, len(run.procID))
	} else {
		fill = fill[:len(run.procID)]
		clear(fill)
	}
	sc.fill = fill
	for _, e := range run.used {
		run.usedArt[run.usedStart[e[0]]+fill[e[0]]] = e[1]
		fill[e[0]]++
	}

	// Canonical document: the normalized wire shape (implicit invocations
	// materialized, everything in dense order). Journal records and
	// snapshots carry these bytes, so recovery rebuilds this exact run.
	switch {
	case rawDoc != nil:
		// Restore path: the document is already canonical — retain it
		// verbatim so recovered runs are byte-identical, whichever
		// encoding (JSON era or binary) they were written with.
		run.doc = rawDoc
	case legacyDocs:
		doc, err := json.Marshal(run.wireDoc(wf))
		if err != nil {
			return nil, errf(engine.ErrInternal, "ingest", "encode run %q: %v", w.Run, err)
		}
		run.doc = doc
	default:
		sc.enc = run.appendDocBinary(sc.enc[:0], wf)
		run.doc = append(make([]byte, 0, len(sc.enc)), sc.enc...)
	}
	return run, nil
}

// traceErr wraps a cause (typically workflow.ErrUnknownTask) in an
// ErrInvalidTrace-coded error, keeping errors.Is reachable.
func traceErr(runID string, cause error) *engine.Error {
	return &engine.Error{
		Code:    engine.ErrInvalidTrace,
		Op:      "ingest",
		Message: fmt.Sprintf("run %q: %v", runID, cause),
		Err:     cause,
	}
}

// wireDoc re-encodes the dense run as its normalized wire document;
// called at build time, while the workflow is lock-protected.
func (r *Run) wireDoc(wf *workflow.Workflow) *wireRun {
	w := &wireRun{Run: r.id, Version: r.version}
	for i, id := range r.procID {
		w.Invocations = append(w.Invocations, wireInvocation{ID: id, Task: wf.Task(int(r.procTask[i])).ID})
	}
	for i, id := range r.artID {
		a := wireArtifact{ID: id}
		if g := r.artGen[i]; g >= 0 {
			a.GeneratedBy = r.procID[g]
		}
		w.Artifacts = append(w.Artifacts, a)
	}
	for _, e := range r.used {
		w.Used = append(w.Used, wireUsed{Process: r.procID[e[0]], Artifact: r.artID[e[1]]})
	}
	return w
}
