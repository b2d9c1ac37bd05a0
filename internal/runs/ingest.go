package runs

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"wolves/internal/bitset"
	"wolves/internal/engine"
	"wolves/internal/jsonwire"
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
// Decoding materializes no strings: the decoders append every string to
// a per-ingest byte arena and record spans of it, and buildRun resolves
// task, invocation and artifact references by bytes. What the immutable
// Run keeps is copied out once — its ID, one string holding every
// artifact and explicit invocation ID (implicit invocations reuse the
// workflow's task-ID strings), and exactly-sized index slices — so no
// retained byte aliases the caller's buffer. The arena and the rest of
// the working set are pooled (ingestScratch): at steady state an ingest
// allocates a fixed number of objects whatever its record count, and a
// sustained NDJSON firehose does not churn the heap per document.

// span locates one decoded string in its run's arena.
type span = jsonwire.Span

// wireInvocation is one process of the trace: an invocation of a
// workflow task.
type wireInvocation struct {
	ID, Task span
}

// wireArtifact is one data item. GeneratedBy names the producing
// invocation (or, when the trace declares no invocations, the producing
// task); empty means an external input to the run.
type wireArtifact struct {
	ID, GeneratedBy span
}

// wireUsed is one consumption edge: Process (an invocation — or task,
// see above) read Artifact.
type wireUsed struct {
	Process, Artifact span
}

// wireRun is one decoded run document, the span form of the JSON shape
//
//	{"run": …, "version": …,
//	 "invocations": [{"id": …, "task": …}],
//	 "artifacts": [{"id": …, "generated_by": …}],
//	 "used": [{"process": …, "artifact": …}]}
//
// When Invocations is empty, process references (generated_by,
// used.process) name workflow tasks directly and one implicit invocation
// is created per referenced task — the paper's own simplification, and
// the natural encoding for Execute-style traces.
type wireRun struct {
	Run span
	// Version is ingestion metadata, not part of the trace: the workflow
	// version the run was validated against. Client-supplied values are
	// ignored on live ingestion; the canonical document records it so
	// recovery restores runs with their original version stamp.
	Version     uint64
	Invocations []wireInvocation
	Artifacts   []wireArtifact
	Used        []wireUsed
	// arena holds the bytes of every span above.
	arena []byte
}

// bytes returns the bytes of s, valid until the arena is reset.
func (w *wireRun) bytes(s span) []byte { return w.arena[s.Off:s.End:s.End] }

// str materializes s as a string — for error messages and tests.
func (w *wireRun) str(s span) string { return string(w.bytes(s)) }

// put appends b to the arena and returns its span.
func (w *wireRun) put(b []byte) span {
	off := len(w.arena)
	w.arena = append(w.arena, b...)
	return span{Off: off, End: len(w.arena)}
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
	// scratchKeep caps the capacity of each byte buffer (arena, decoder
	// unquote buffer, NDJSON spill, encode buffer) the scratch pool
	// retains: a rare multi-megabyte document or line must not pin its
	// buffers forever.
	scratchKeep = jsonwire.ScratchKeep
)

// ingestScratch recycles the per-ingest working set: the decoded wire
// run and its arena (capacities survive), the build-time invocation
// indexes, the CSR fill cursor, the binary-doc encode buffer, the NDJSON
// stream reader, and the runs built so far. One scratch serves one
// ingest at a time, whole batches included.
type ingestScratch struct {
	w        wireRun
	line     wireLine
	jd       jsonwire.Decoder
	lineBufs wireLineBufs
	// procIdx maps process references to their dense invocation index;
	// its keys are slices of the Run's retained ID string (explicit
	// invocations) or the workflow's task IDs (implicit ones).
	procIdx  map[string]int32
	procTask []int32
	artGen   []int32
	fill     []int32
	enc      []byte
	br       *bufio.Reader
	spill    []byte
	// runs holds the ingest's built runs until they are inserted; trim
	// clears it, so the pool never pins a run.
	runs []*Run
}

var scratchPool = sync.Pool{New: func() any {
	return &ingestScratch{
		procIdx: make(map[string]int32, 64),
		br:      bufio.NewReaderSize(nil, ndjsonBufBytes),
	}
}}

// trim prepares sc for the pool: it drops byte buffers an outsized
// ingest grew past scratchKeep and the decoder's and stream reader's
// hold on the request body. Callers defer scratchPool.Put(sc.trim()) in
// a closure, so the trim runs at return.
func (sc *ingestScratch) trim() *ingestScratch {
	if cap(sc.w.arena) > scratchKeep {
		sc.w.arena = nil
	}
	if cap(sc.spill) > scratchKeep {
		sc.spill = nil
	}
	if cap(sc.enc) > scratchKeep {
		sc.enc = nil
	}
	sc.runs = jsonwire.Reuse(sc.runs)
	sc.jd.Release()
	sc.br.Reset(nil)
	return sc
}

// wire resets and returns the scratch's wire run, keeping the capacities
// of previous decodes so the backing arrays are reused. The slices come
// back cleared of what the previous document wrote (jsonwire.Reuse): the
// JSON decoder re-exposes slots past the length as encoding/json does,
// and nothing stale from a previous document may show through them. A
// slice an outsized document grew past jsonwire.SliceKeep bytes is
// dropped here, at the scratch's next document.
func (sc *ingestScratch) wire() *wireRun {
	sc.w = wireRun{
		Invocations: jsonwire.Reuse(sc.w.Invocations),
		Artifacts:   jsonwire.Reuse(sc.w.Artifacts),
		Used:        jsonwire.Reuse(sc.w.Used),
		arena:       sc.w.arena[:0],
	}
	return &sc.w
}

// decodeDoc parses one full run document — the binary canonical form
// when the first byte is its version tag, JSON otherwise — into w.
func (sc *ingestScratch) decodeDoc(w *wireRun, doc []byte) error {
	if len(doc) > 0 && doc[0] == docBinV1 {
		return decodeRunDocBinaryInto(w, doc)
	}
	// A document's strings never outgrow it by much; one growth up front
	// spares a cold arena its doubling steps.
	w.arena = slices.Grow(w.arena, len(doc))
	return decodeRunDocJSON(&sc.jd, w, doc)
}

// IngestCtx validates and stores one run document for workflowID,
// journaling it when a journal is installed. Re-ingesting an existing
// run ID replaces the run (idempotent, which is also what makes WAL
// replay safe). The returned info carries the workflow version the run
// was validated against. ctx carries the trace span into the journal
// append and is observability-only.
func (s *Store) IngestCtx(ctx context.Context, workflowID string, doc []byte) (*RunInfo, error) {
	sc := scratchPool.Get().(*ingestScratch)
	defer func() { scratchPool.Put(sc.trim()) }()
	w := sc.wire()
	if err := sc.decodeDoc(w, doc); err != nil {
		return nil, errf(engine.ErrInvalidTrace, "ingest", "malformed run document: %v", err)
	}
	return s.ingestOne(ctx, workflowID, sc, w)
}

// wireLine is one NDJSON record — {"run": …}, {"invocation": {…}},
// {"artifact": {…}} or {"used": {…}}: exactly one of the fields is set.
// Its spans index the arena of the run the record accumulates into.
type wireLine struct {
	Run        span
	Invocation *wireInvocation
	Artifact   *wireArtifact
	Used       *wireUsed
}

// IngestNDJSONCtx streams one run from r: each line is a JSON record
// declaring the run ID, an invocation, an artifact or a used edge.
// A final line torn mid-record (a client crash or truncated upload)
// rejects the whole run with ErrInvalidTrace — runs are atomic, never
// partially ingested. A single line longer than MaxNDJSONLineBytes
// rejects the run with ErrBadInput. ctx is used as in IngestCtx.
func (s *Store) IngestNDJSONCtx(ctx context.Context, workflowID string, r io.Reader) (*RunInfo, error) {
	sc := scratchPool.Get().(*ingestScratch)
	sc.br.Reset(r)
	defer func() { scratchPool.Put(sc.trim()) }()
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
			if jerr := decodeWireLineJSON(&sc.jd, &sc.line, trimmed, &sc.lineBufs, &w.arena); jerr != nil {
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
	return s.ingestOne(ctx, workflowID, sc, w)
}

// ingestOne ingests the one decoded run w of a document or stream.
func (s *Store) ingestOne(ctx context.Context, workflowID string, sc *ingestScratch, w *wireRun) (*RunInfo, error) {
	infos, err := s.ingest(ctx, workflowID, sc, input{w: w})
	if err != nil {
		return nil, err
	}
	return &infos[0], nil
}

// accumulate folds one NDJSON record into the run under construction.
func accumulate(w *wireRun, rec *wireLine, lineNo int) *engine.Error {
	set := 0
	if rec.Run.Len() > 0 {
		set++
		if w.Run.Len() > 0 && !bytes.Equal(w.bytes(w.Run), w.bytes(rec.Run)) {
			return errf(engine.ErrInvalidTrace, "ingest",
				"NDJSON line %d: run id %q conflicts with %q", lineNo, w.bytes(rec.Run), w.bytes(w.Run))
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

// input is what an entry point hands the write path: the one decoded run
// of a document, an NDJSON stream or a restore, or the documents of a
// batch, which the write path decodes one at a time into the scratch (its
// arena holds one document at a time).
type input struct {
	w    *wireRun
	docs [][]byte
	// restore marks recovery replay of an already-durable run: it is not
	// gated, journaled or counted, and keeps the version stamp its
	// document carries. raw, when non-nil, is the canonical document to
	// retain verbatim, so recovered runs stay byte-identical.
	restore bool
	raw     []byte
}

// ingest is the write path of every ingest entry point: it validates and
// interns the input's runs against the workflow, inserts them into its
// shard and journals them, all or nothing — any rejection rejects every
// run before any state is touched. One run is journaled with RunIngested,
// a batch with RunsIngested as one record and one durability wait. The
// returned infos are in input order.
func (s *Store) ingest(ctx context.Context, workflowID string, sc *ingestScratch, in input) ([]RunInfo, error) {
	start := time.Now()
	name := "ingest"
	if in.docs != nil {
		name = "ingest.batch"
	}
	ctx, span := obs.StartSpan(ctx, "runs", name)
	defer span.End()
	span.SetAttr("workflow", workflowID)
	if span != nil && in.w != nil {
		span.SetAttr("run", in.w.str(in.w.Run))
	}
	lw, err := s.reg.Get(workflowID)
	if err != nil {
		return nil, wrapErr("ingest", err)
	}
	// Degraded gate, checked before any state is touched: an ingest
	// rejected here leaves no partial run anywhere.
	if !in.restore {
		if gerr := s.reg.CheckWritable("ingest"); gerr != nil {
			return nil, wrapErr("ingest", gerr)
		}
	}
	n := 1
	if in.docs != nil {
		n = len(in.docs)
	}
	var infos []RunInfo
	var wantSnap bool
	// Validation, shard insertion and the journal append all run inside
	// one read-locked State call. The lock is what orders this ingestion
	// against a same-ID re-registration: replacing a workflow close()s
	// the old incarnation under its WRITE lock before the registry
	// journals the new registration record, so a run record appended
	// here can never land after the registration record that supersedes
	// its workflow — replay always re-validates the run against the
	// incarnation it was validated against live.
	if err := lw.State(func(st *engine.LiveState) error {
		for i := 0; i < n; i++ {
			w, batchIdx := in.w, -1
			if in.docs != nil {
				w, batchIdx = sc.wire(), i
				if derr := sc.decodeDoc(w, in.docs[i]); derr != nil {
					return errf(engine.ErrInvalidTrace, "ingest",
						"batch document %d: malformed run document: %v", i, derr)
				}
			}
			version := st.Version
			if in.restore && w.Version != 0 {
				version = w.Version
			}
			r, berr := buildRun(st.Workflow, version, w, batchIdx, in.raw, sc)
			if berr != nil {
				return berr
			}
			sc.runs = append(sc.runs, r)
		}

		infos = make([]RunInfo, n)
		sh := s.shardFor(lw)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for i, r := range sc.runs {
			_, replaced := sh.runs[r.id]
			sh.runs[r.id] = r
			if !replaced {
				sh.order = append(sh.order, r.id)
			}
			infos[i] = *r.info(workflowID)
			infos[i].Replaced = replaced
		}
		if in.restore || s.journal == nil {
			return nil
		}
		// Journaled under the shard lock so the run records of one
		// workflow hit the WAL in ingestion order. A journal error leaves
		// the runs applied in memory and flips the registry into degraded
		// read-only mode (JournalFault): every later ingest is gated until
		// the background probe resyncs the store — which folds these runs
		// into a snapshot — the same contract as the registry's mutations.
		var jerr error
		if in.docs == nil {
			wantSnap, jerr = s.journal.RunIngested(ctx, workflowID, sc.runs[0].id, sc.runs[0].doc)
		} else {
			ids, docs := make([]string, n), make([][]byte, n)
			for i, r := range sc.runs {
				ids[i], docs[i] = r.id, r.doc
			}
			wantSnap, jerr = s.journal.RunsIngested(ctx, workflowID, ids, docs)
		}
		if jerr != nil {
			return s.reg.JournalFault("ingest", jerr)
		}
		return nil
	}); err != nil {
		return nil, wrapErr("ingest", err)
	}
	if in.restore {
		return infos, nil
	}
	obs.MIngestRuns.Add(uint64(n))
	obs.MIngestLatency.Observe(time.Since(start).Seconds())

	if wantSnap {
		// The runs' WAL growth passed the snapshot trigger: fold the
		// workflow (runs included, via the store's run provider) into a
		// fresh snapshot. Taken outside the shard lock — the provider
		// re-reads the shard.
		if serr := lw.State(func(st *engine.LiveState) error {
			return s.journal.SnapshotWorkflow(ctx, st)
		}); serr != nil && !engine.IsCode(serr, engine.ErrUnknownWorkflow) {
			return nil, wrapErr("ingest", s.reg.JournalFault("ingest", serr))
		}
	}
	return infos, nil
}

// IngestBatchCtx validates and stores a batch of run documents for
// workflowID in one journaled operation: all documents are validated
// and interned first (any rejection rejects the whole batch before any
// state is touched), then inserted and journaled together as one record,
// so one group-commit fsync covers the burst. The returned infos are in
// document order. ctx is used as in IngestCtx.
func (s *Store) IngestBatchCtx(ctx context.Context, workflowID string, docs [][]byte) ([]RunInfo, error) {
	if len(docs) == 0 {
		return []RunInfo{}, nil
	}
	sc := scratchPool.Get().(*ingestScratch)
	defer func() { scratchPool.Put(sc.trim()) }()
	return s.ingest(ctx, workflowID, sc, input{docs: docs})
}

// buildRun validates the wire run against wf's task space and interns it
// into the dense representation, like the string reference's
// refIngestWire: the run must name itself (a batch document's message
// carries its index, batchIdx; -1 outside a batch) and hold something.
// All errors are ErrInvalidTrace-coded (wrapping workflow.ErrUnknownTask
// where a task lookup failed). The canonical document is rawDoc verbatim
// when non-nil (restore path), otherwise freshly encoded in the binary
// form.
//
// References resolve by bytes against the arena, so no transient string
// is built. The Run's strings are its ID and ids, one string holding
// every explicit invocation ID and then every artifact ID in document
// order: procID, artID and the artIdx and procIdx keys are slices of it.
func buildRun(wf *workflow.Workflow, version uint64, w *wireRun, batchIdx int, rawDoc []byte,
	sc *ingestScratch) (*Run, *engine.Error) {
	if w.Run.Len() == 0 {
		if batchIdx >= 0 {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"batch document %d: run document missing run id", batchIdx)
		}
		return nil, errf(engine.ErrInvalidTrace, "ingest", "run document missing run id")
	}
	if len(w.Artifacts) == 0 && len(w.Invocations) == 0 {
		return nil, errf(engine.ErrInvalidTrace, "ingest",
			"run %q is empty: no invocations and no artifacts", w.bytes(w.Run))
	}
	n := wf.N()
	runID := string(w.bytes(w.Run))
	var sb strings.Builder
	size := 0
	for _, inv := range w.Invocations {
		size += inv.ID.Len()
	}
	for _, a := range w.Artifacts {
		size += a.ID.Len()
	}
	sb.Grow(size)
	for _, inv := range w.Invocations {
		sb.Write(w.bytes(inv.ID))
	}
	for _, a := range w.Artifacts {
		sb.Write(w.bytes(a.ID))
	}
	ids := sb.String()
	// nextID hands out the consecutive slices of ids.
	off := 0
	nextID := func(s span) string {
		id := ids[off : off+s.Len()]
		off += s.Len()
		return id
	}

	run := &Run{
		id:      runID,
		version: version,
		n:       n,
		artIdx:  make(map[string]int32, len(w.Artifacts)),
		invoked: bitset.New(n),
		used:    make([][2]int32, len(w.Used)),
	}
	implicit := len(w.Invocations) == 0
	clear(sc.procIdx)
	procIdx := sc.procIdx
	sc.procTask, sc.artGen = sc.procTask[:0], sc.artGen[:0]

	// addProc creates the next invocation, of task ti.
	addProc := func(ti int) int32 {
		pi := int32(len(sc.procTask))
		sc.procTask = append(sc.procTask, int32(ti))
		run.invoked.Set(ti)
		return pi
	}
	for i, inv := range w.Invocations {
		id := nextID(inv.ID)
		if id == "" {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: invocation %d has an empty id", runID, i)
		}
		if _, dup := procIdx[id]; dup {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: duplicate invocation id %q", runID, id)
		}
		ti, ok := wf.IndexBytes(w.bytes(inv.Task))
		if !ok {
			return nil, traceErr(runID, fmt.Errorf("invocation %q: %w: %q",
				id, workflow.ErrUnknownTask, w.bytes(inv.Task)))
		}
		procIdx[id] = addProc(ti)
	}
	// resolve maps a process reference onto a dense invocation index. In
	// implicit mode the reference is a task ID and the invocation is
	// created on first use. The caller's context string is built lazily
	// (whereFmt+whereArg), only on the failure paths — the success path
	// of the hot loops below must not pay a fmt.Sprintf per edge.
	resolve := func(ref span, whereFmt string, whereArg span) (int32, *engine.Error) {
		b := w.bytes(ref)
		if pi, ok := procIdx[string(b)]; ok {
			return pi, nil
		}
		if !implicit {
			return 0, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: %s references unknown invocation %q",
				runID, fmt.Sprintf(whereFmt, w.bytes(whereArg)), b)
		}
		ti, ok := wf.IndexBytes(b)
		if !ok {
			return 0, traceErr(runID, fmt.Errorf("%s: %w: %q",
				fmt.Sprintf(whereFmt, w.bytes(whereArg)), workflow.ErrUnknownTask, b))
		}
		pi := addProc(ti)
		procIdx[wf.Task(ti).ID] = pi
		return pi, nil
	}

	for i, a := range w.Artifacts {
		id := nextID(a.ID)
		if id == "" {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: artifact %d has an empty id", runID, i)
		}
		if _, dup := run.artIdx[id]; dup {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: duplicate artifact id %q", runID, id)
		}
		gen := int32(-1)
		if a.GeneratedBy.Len() > 0 {
			pi, gerr := resolve(a.GeneratedBy, "artifact %q generated_by", a.ID)
			if gerr != nil {
				return nil, gerr
			}
			gen = pi
		}
		run.artIdx[id] = int32(i)
		sc.artGen = append(sc.artGen, gen)
	}

	for i, u := range w.Used {
		pi, uerr := resolve(u.Process, "used edge for artifact %q", u.Artifact)
		if uerr != nil {
			return nil, uerr
		}
		ai, ok := run.artIdx[string(w.bytes(u.Artifact))]
		if !ok {
			return nil, errf(engine.ErrInvalidTrace, "ingest",
				"run %q: dangling used edge: process %q consumes unknown artifact %q",
				runID, w.bytes(u.Process), w.bytes(u.Artifact))
		}
		run.used[i] = [2]int32{pi, ai}
	}

	// The run is valid: lay out its retained slices, sized from the final
	// counts. Both ID tables share one []string and every dense index one
	// []int32 slab, each carved with capped capacity.
	np, na := len(sc.procTask), len(w.Artifacts)
	strs := make([]string, np+na)
	run.procID, run.artID = strs[:np:np], strs[np:]
	off = 0 // hand out ids again, in the same order
	for i, inv := range w.Invocations {
		run.procID[i] = nextID(inv.ID)
	}
	if implicit {
		for i, ti := range sc.procTask {
			run.procID[i] = wf.Task(int(ti)).ID
		}
	}
	for i, a := range w.Artifacts {
		run.artID[i] = nextID(a.ID)
	}
	nInvoked := run.invoked.Count()
	slab := make([]int32, 2*np+1+na+len(w.Used)+nInvoked)
	carve := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	run.procTask = carve(np)
	copy(run.procTask, sc.procTask)
	run.artGen = carve(na)
	copy(run.artGen, sc.artGen)

	// Sorted invoked-task list for the label query path (invocations may
	// arrive in any order and repeat tasks; the bitset dedups).
	run.invokedList = carve(nInvoked)[:0]
	run.invoked.ForEach(func(u int) bool {
		run.invokedList = append(run.invokedList, int32(u))
		return true
	})

	// CSR adjacency (artifacts consumed per invocation) for why-provenance
	// walks: O(invocations + used) words, built once at ingestion. Only
	// the fill cursor is scratch.
	run.usedStart = carve(np + 1)
	for _, e := range run.used {
		run.usedStart[e[0]+1]++
	}
	for i := 1; i < len(run.usedStart); i++ {
		run.usedStart[i] += run.usedStart[i-1]
	}
	run.usedArt = carve(len(run.used))
	if cap(sc.fill) < np {
		sc.fill = make([]int32, np)
	}
	fill := sc.fill[:np]
	clear(fill)
	for _, e := range run.used {
		run.usedArt[run.usedStart[e[0]]+fill[e[0]]] = e[1]
		fill[e[0]]++
	}

	// Canonical document: the normalized wire shape (implicit invocations
	// materialized, everything in dense order). Journal records and
	// snapshots carry these bytes, so recovery rebuilds this exact run.
	if rawDoc != nil {
		// Restore path: the document is already canonical — retain it
		// verbatim so recovered runs are byte-identical, whichever
		// encoding (JSON era or binary) they were written with.
		run.doc = rawDoc
	} else {
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
