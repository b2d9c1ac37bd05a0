package engine

import (
	"context"

	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file defines the durability seam of the live workflow registry:
// every committed state transition — registration, mutation batch, view
// attach/detach, deletion — flows through a Journal. The default journal
// is nil (purely in-memory, exactly the pre-durability behavior); the
// internal/storage package implements Journal with a checksummed
// write-ahead log plus per-workflow snapshots, and restores a Registry
// after a crash through the Restore/State surface below.
//
// Ordering contract: the registry invokes journal methods while holding
// the affected live workflow's write lock (and, for registration, before
// the workflow is reachable by other goroutines), so per-workflow journal
// calls arrive in commit order. Calls for different workflows may arrive
// concurrently; the journal serializes them itself.
//
// Failure contract: a journal error fails the triggering operation.
// Registration is unpublished on journal failure; a mutation or view
// change that fails to journal remains applied in memory (unwinding a
// merged report is not worth the complexity for a failing disk) —
// implementations are expected to treat any append error as sticky, so
// no later operation can fork memory further from the durable history.
// A sticky error that implements JournalUnavailable() bool flips the
// registry into degraded read-only mode (health.go): queries keep
// serving from memory, writes return typed degraded errors, and when
// the journal also implements RecoverableJournal a background probe
// reopens it, resyncs the durable state to memory (which is
// authoritative — it includes the operations that failed mid-journal),
// and flips the registry back to healthy. Journal errors without the
// marker surface as internal-coded errors and the operator restarts
// from the last durable state.

// AttachedView pairs a view ID with the attached view object.
type AttachedView struct {
	ID   string
	View *view.View
}

// LiveState is a read-consistent description of one live workflow handed
// to a Journal (for snapshots) or to State callbacks. The Workflow and
// View pointers reference live registry state and are only valid for the
// duration of the call that provided them: encode, don't retain.
type LiveState struct {
	ID       string
	Version  uint64
	Workflow *workflow.Workflow
	Views    []AttachedView
}

// AppliedBatch is the committed portion of a mutation batch: the tasks
// appended and the edges actually inserted (requested duplicates are
// dropped), as ID pairs in application order. Replaying an AppliedBatch
// through LiveWorkflow.MutateCtx from the same pre-state is deterministic
// and reproduces the same post-state, version bump and reports.
type AppliedBatch struct {
	Tasks []workflow.Task
	Edges [][2]string
}

// Journal receives every committed registry state transition. The no-op
// journal is a nil Journal; see internal/storage for the durable one.
// Every method takes the operation's context first: it carries the
// request's trace span (internal/obs) down into the storage layer and
// is for observability only — journal appends are never abandoned on
// cancellation, or memory and the durable history would fork.
type Journal interface {
	// Registered is called when a workflow is registered (or replaces a
	// previous registration under the same ID). st captures the initial
	// state: version 1, no views.
	Registered(ctx context.Context, st *LiveState) error
	// Committed is called after a structural mutation batch commits. st
	// reflects the post-batch state (the journal decides when to turn it
	// into a snapshot).
	Committed(ctx context.Context, batch *AppliedBatch, st *LiveState) error
	// ViewAttached is called when a view is attached or replaced. st
	// reflects the post-attach state (the attached view document can be
	// large, so journals fold view churn into their snapshot policy).
	ViewAttached(ctx context.Context, st *LiveState, vid string, v *view.View) error
	// ViewDetached is called when a view is detached; st reflects the
	// post-detach state.
	ViewDetached(ctx context.Context, st *LiveState, vid string) error
	// Deleted is called when a workflow is deleted — explicitly, or by
	// LRU eviction / replacement (a durable registry mirrors the live
	// one exactly, so eviction deletes persisted state too; size the
	// registry capacity accordingly).
	Deleted(ctx context.Context, id string) error
}

// RestoredView names one view to re-attach during recovery. Build
// decodes or constructs the view against the restored live workflow; the
// report is recomputed by full validation, which by the registry's
// maintenance invariant equals the incrementally maintained report the
// view had before the crash.
type RestoredView struct {
	ID    string
	Build func(wf *workflow.Workflow) (*view.View, error)
}

// Restore registers a recovered workflow at an explicit version with its
// views, bypassing the journal (the state being restored is already
// durable). It is the replayer's counterpart of RegisterCtx + AttachViewCtx
// and is not meant for general use: call it only before the registry
// serves traffic.
func (r *Registry) Restore(ctx context.Context, id string, version uint64, wf *workflow.Workflow, views []RestoredView) (*LiveWorkflow, error) {
	if version == 0 {
		version = 1
	}
	lw, err := r.register(ctx, id, wf, version, false)
	if err != nil {
		return nil, err
	}
	for _, rv := range views {
		if _, _, err := lw.attachView(ctx, rv.ID, rv.Build, false); err != nil {
			return nil, err
		}
	}
	return lw, nil
}

// BeginRestore puts the registry in replay mode: epoch publication —
// and with it the per-view quotient label rebuild, the dominant cost of
// applying a mutation — is deferred until EndRestore. Replay applies
// thousands of records per workflow before anyone can query, so
// publishing a fresh read epoch after every one is pure waste; deferred,
// each workflow pays for exactly one publication at the end of recovery.
// Only epochs and view labels are deferred: the task-level label pair
// always exists and is patched by every replayed edge, as on the live
// path.
// Pair with EndRestore before the registry serves traffic: a workflow
// has no read epoch while restoring, and lineage readers treat a
// missing epoch as a closed workflow (LiveWorkflow.Read). Run ingestion
// during replay reads the live state under the lock and stays correct.
func (r *Registry) BeginRestore() { r.restoring.Store(true) }

// EndRestore leaves replay mode and publishes one read epoch per live
// workflow. Idempotent; a no-op when BeginRestore was never called.
func (r *Registry) EndRestore() {
	if !r.restoring.Swap(false) {
		return
	}
	r.mu.Lock()
	lws := make([]*LiveWorkflow, 0, len(r.lws))
	for _, lw := range r.lws {
		lws = append(lws, lw)
	}
	r.mu.Unlock()
	for _, lw := range lws {
		lw.mu.Lock()
		if !lw.closed {
			lw.publishEpochLocked()
		}
		lw.mu.Unlock()
	}
}

// SetJournal installs (or clears) the registry's journal. Not
// synchronized with in-flight operations: call it during setup, after
// recovery and before the registry serves traffic (wolvesd recovers into
// a journal-less registry, then installs the store it recovered from).
func (r *Registry) SetJournal(j Journal) { r.journal = j }

// State invokes fn with a read-locked snapshot description of the live
// workflow. The LiveState (and the pointers inside it) must not be
// retained past fn.
func (lw *LiveWorkflow) State(fn func(st *LiveState) error) error {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	if lw.closed {
		return lw.errClosed("state")
	}
	return fn(lw.stateLocked())
}

// stateLocked assembles the LiveState under a held lock.
func (lw *LiveWorkflow) stateLocked() *LiveState {
	st := &LiveState{ID: lw.id, Version: lw.version, Workflow: lw.wf}
	for _, vid := range lw.viewOrder {
		st.Views = append(st.Views, AttachedView{ID: vid, View: lw.views[vid].v})
	}
	return st
}
