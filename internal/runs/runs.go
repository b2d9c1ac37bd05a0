// Package runs is the multi-run provenance store and query engine of
// wolvesd: the subsystem that turns the WOLVES view machinery into a
// provenance *service*. Clients ingest OPM-style execution traces
// (invocations + artifacts + used/wasGeneratedBy edges, JSON or NDJSON
// streaming) against a workflow registered in the live registry; every
// record is validated against the workflow's task space, artifact and
// invocation IDs are interned into dense indices, and the run is indexed
// under its workflow so it costs O(edges) machine words. Lineage,
// descendant and why-provenance queries are then served at three levels:
//
//   - exact: the task-level closure, read from the registry's
//     incrementally maintained IncrementalClosure rows;
//   - view: the composite-level closure of an attached view — the
//     paper's cheap answer, correct only for sound views;
//   - audited: the view-level answer plus the provenance-audit delta,
//     so every response carries a soundness flag and the exact set of
//     spurious/missing composites (the paper's 14→18 example).
//
// Concurrency: the store holds one shard per workflow with its own
// RWMutex, so ingestion into one workflow never stalls queries on
// another; individual runs are immutable after ingestion, so queries
// hold no shard lock while computing. Shards are anchored to the
// registry's live-workflow handle — when a workflow is deleted, replaced
// or evicted, the registry's OnClose hook drops its shard, and its runs
// die with it.
//
// Durability: with a Journal installed (internal/storage implements it),
// every ingested run is appended to the registry's WAL and folded into
// the workflow's snapshots, so a daemon restart recovers every run
// byte-identically (see storage.RecoverWithRuns).
package runs

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"wolves/internal/bitset"
	"wolves/internal/engine"
)

// Journal receives every committed run ingestion. The storage package's
// Store implements it next to engine.Journal: RunIngested appends one
// WAL record and reports whether the workflow's WAL growth passed the
// snapshot trigger; the store then follows up with SnapshotWorkflow
// under the workflow's read lock. A nil Journal means purely in-memory.
// Like engine.Journal, every method takes the operation's context first:
// it carries the request's trace span (internal/obs) into the storage
// layer and is observability-only — appends are never abandoned on
// cancellation.
type Journal interface {
	// RunIngested journals one ingested (or replaced) run document.
	RunIngested(ctx context.Context, workflowID, runID string, doc []byte) (wantSnapshot bool, err error)
	// RunsIngested journals a batch of run documents for one workflow as
	// one record with a single durability wait, so recovery restores the
	// whole batch or none of it and one group-commit fsync covers the
	// burst (IngestBatchCtx).
	RunsIngested(ctx context.Context, workflowID string, runIDs []string, docs [][]byte) (wantSnapshot bool, err error)
	// SnapshotWorkflow folds the workflow into a fresh snapshot covering
	// everything journaled so far (runs included, via the run provider).
	SnapshotWorkflow(ctx context.Context, st *engine.LiveState) error
}

// Store is the concurrent multi-run provenance store, layered on the
// live workflow registry. Construct with New; all methods are safe for
// concurrent use.
type Store struct {
	reg     *engine.Registry
	workers int
	// journal is set at construction (WithJournal) or during setup
	// (SetJournal) — not synchronized with live traffic, exactly like
	// the registry's journal seam.
	journal Journal

	mu     sync.Mutex // guards shards map only
	shards map[string]*shard
}

// Option configures a Store at construction time.
type Option func(*Store)

// WithJournal installs the durability journal (see Journal).
func WithJournal(j Journal) Option {
	return func(s *Store) { s.journal = j }
}

// WithWorkers sets the default fan-out width of LineageBatch. n <= 0
// (the default) means 8.
func WithWorkers(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.workers = n
		}
	}
}

// New returns an empty run store over reg.
func New(reg *engine.Registry, opts ...Option) *Store {
	s := &Store{reg: reg, workers: 8, shards: make(map[string]*shard)}
	for _, o := range opts {
		o(s)
	}
	reg.OnClose(s.release)
	return s
}

// SetJournal installs (or clears) the store's journal. Call during
// setup — after recovery, before serving traffic.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// shard holds every run of one workflow registration. The anchor lw
// pins the registration the runs belong to: release drops the shard when
// that registration dies, and an ingest into a newer handle for the same
// ID replaces a shard it finds still anchored to an older one — runs
// never outlive the workflow they were validated against.
type shard struct {
	lw *engine.LiveWorkflow

	mu    sync.RWMutex
	runs  map[string]*Run
	order []string // ingestion order
}

// shardFor returns (creating or re-anchoring as needed) the shard of the
// given live registration.
func (s *Store) shardFor(lw *engine.LiveWorkflow) *shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[lw.ID()]
	if !ok || sh.lw != lw {
		sh = &shard{lw: lw, runs: make(map[string]*Run)}
		s.shards[lw.ID()] = sh
	}
	return sh
}

// release drops the shard of a registration that died (the registry's
// OnClose hook), so its runs are garbage from that moment on.
// Ingestion inserts into a shard only inside the workflow's State call,
// under its read lock, and the hook runs after close() marked the
// workflow closed under the write lock — so no run can land in a shard
// after its release.
func (s *Store) release(lw *engine.LiveWorkflow) {
	s.mu.Lock()
	if sh := s.shards[lw.ID()]; sh != nil && sh.lw == lw {
		delete(s.shards, lw.ID())
	}
	s.mu.Unlock()
}

// shardRead returns the shard anchored to exactly this registration, or
// nil when no runs were ingested for it (read paths never create
// shards, and never resurrect a stale one).
func (s *Store) shardRead(lw *engine.LiveWorkflow) *shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[lw.ID()]
	if sh == nil || sh.lw != lw {
		return nil
	}
	return sh
}

// Run is one ingested execution trace in dense interned form. Runs are
// immutable after ingestion (replacement swaps the whole pointer), so
// queries read them without any lock.
type Run struct {
	id      string
	version uint64 // workflow version at ingestion
	n       int    // workflow task count at ingestion

	procID   []string // invocation IDs, dense
	procTask []int32  // invocation → workflow task index

	artID  []string
	artGen []int32 // artifact → generating invocation, -1 = external input
	artIdx map[string]int32

	used      [][2]int32 // (invocation, artifact), ingestion order
	usedStart []int32    // CSR offsets: artifacts used by each invocation
	usedArt   []int32

	invoked *bitset.Set // tasks with at least one invocation
	// invokedList mirrors invoked as a sorted dense slice: the label
	// query path enumerates candidate tasks by walking it (O(invoked))
	// instead of scanning an O(n) closure row per query.
	invokedList []int32

	// doc is the canonical document (journal, snapshots, export): binary
	// (bindoc.go) unless it was restored from a JSON-era data dir.
	doc []byte
}

// ID returns the run ID.
func (r *Run) ID() string { return r.id }

// Doc returns the canonical document of the run: binary (docBinV1)
// unless restored from JSON-era state, which stays JSON. Shared; do not
// mutate.
func (r *Run) Doc() []byte { return r.doc }

// RunInfo is the wire metadata of one ingested run.
type RunInfo struct {
	Run          string `json:"run"`
	Workflow     string `json:"workflow"`
	Version      uint64 `json:"version"` // workflow version at ingestion
	Invocations  int    `json:"invocations"`
	Artifacts    int    `json:"artifacts"`
	UsedEdges    int    `json:"used_edges"`
	TasksInvoked int    `json:"tasks_invoked"`
	Bytes        int64  `json:"bytes"`
	Replaced     bool   `json:"replaced,omitempty"`
}

func (r *Run) info(workflowID string) *RunInfo {
	return &RunInfo{
		Run:          r.id,
		Workflow:     workflowID,
		Version:      r.version,
		Invocations:  len(r.procID),
		Artifacts:    len(r.artID),
		UsedEdges:    len(r.used),
		TasksInvoked: r.invoked.Count(),
		Bytes:        int64(len(r.doc)),
	}
}

// Runs lists the ingested runs of a workflow in ingestion order.
func (s *Store) Runs(workflowID string) ([]RunInfo, error) {
	lw, err := s.reg.Get(workflowID)
	if err != nil {
		return nil, wrapErr("runs", err)
	}
	infos := []RunInfo{}
	sh := s.shardRead(lw)
	if sh == nil {
		return infos, nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, id := range sh.order {
		infos = append(infos, *sh.runs[id].info(workflowID))
	}
	return infos, nil
}

// Info returns the metadata of one run.
func (s *Store) Info(workflowID, runID string) (*RunInfo, error) {
	_, run, err := s.lookup(workflowID, runID)
	if err != nil {
		return nil, err
	}
	return run.info(workflowID), nil
}

// lookup resolves a (workflow, run) pair to the live handle and the
// immutable run object.
func (s *Store) lookup(workflowID, runID string) (*engine.LiveWorkflow, *Run, error) {
	lw, err := s.reg.Get(workflowID)
	if err != nil {
		return nil, nil, wrapErr("lineage", err)
	}
	sh := s.shardRead(lw)
	if sh == nil {
		return nil, nil, errf(engine.ErrUnknownRun, "lineage", "no run %q on workflow %q", runID, workflowID)
	}
	sh.mu.RLock()
	run := sh.runs[runID]
	sh.mu.RUnlock()
	if run == nil {
		return nil, nil, errf(engine.ErrUnknownRun, "lineage", "no run %q on workflow %q", runID, workflowID)
	}
	return lw, run, nil
}

// Stats is a snapshot of what the store holds: runs and their canonical
// document bytes, summed over every live registration. /metrics serves
// it as wolves_runs_resident and wolves_run_doc_bytes.
type Stats struct {
	Runs     int
	DocBytes int64
}

// Stats sums the resident shards. Shards of dead registrations are
// already gone (release), so it only reads.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()

	var st Stats
	for _, sh := range shards {
		sh.mu.RLock()
		st.Runs += len(sh.runs)
		for _, r := range sh.runs {
			st.DocBytes += int64(len(r.doc))
		}
		sh.mu.RUnlock()
	}
	return st
}

// SnapshotRuns implements the storage package's run provider: the
// canonical documents of every run currently held for workflowID, in
// ingestion order. The docs are immutable and safe to retain.
func (s *Store) SnapshotRuns(workflowID string) (ids []string, docs [][]byte) {
	lw, err := s.reg.Peek(workflowID)
	if err != nil {
		return nil, nil
	}
	sh := s.shardRead(lw)
	if sh == nil {
		return nil, nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, id := range sh.order {
		ids = append(ids, id)
		docs = append(docs, sh.runs[id].doc)
	}
	return ids, docs
}

// RestoreRun implements the storage package's run restorer: re-ingest a
// recovered run document, bypassing the journal (the record being
// replayed is already durable). Replay of a record for a workflow that
// did not survive recovery returns an ErrUnknownWorkflow-coded error,
// which the replayer tolerates.
func (s *Store) RestoreRun(workflowID, runID string, doc []byte) error {
	sc := scratchPool.Get().(*ingestScratch)
	defer func() { scratchPool.Put(sc.trim()) }()
	w := sc.wire()
	if err := sc.decodeDoc(w, doc); err != nil {
		return errf(engine.ErrInvalidTrace, "restore", "run %q of workflow %q: %v", runID, workflowID, err)
	}
	// The recovered document is already canonical: retain its bytes
	// verbatim (no re-encode), so the restored run — and every snapshot
	// and WAL record derived from it later — is byte-identical to the
	// pre-crash one, whichever encoding it was written with.
	raw := doc
	if w.Run.Len() == 0 {
		w.Run = w.put([]byte(runID)) // pre-canonical document: re-encode instead
		raw = nil
	}
	ctx := context.Background() //lint:allow ctxpass replay of durable state: journaling is off, nothing downstream to trace or cancel
	_, err := s.ingest(ctx, workflowID, sc, input{w: w, restore: true, raw: raw})
	return err
}

// --- error helpers ------------------------------------------------------------

func errf(code engine.Code, op, format string, args ...any) *engine.Error {
	return &engine.Error{Code: code, Op: op, Message: fmt.Sprintf(format, args...)}
}

// wrapErr reuses the engine's error classification: engine errors pass
// through untouched, everything else becomes internal.
func wrapErr(op string, err error) *engine.Error {
	if err == nil {
		return nil
	}
	var ee *engine.Error
	if errors.As(err, &ee) {
		return ee
	}
	return &engine.Error{Code: engine.ErrInternal, Op: op, Message: err.Error(), Err: err}
}
