package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wolves/internal/bitset"
	"wolves/internal/core"
	"wolves/internal/dag"
	"wolves/internal/obs"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file implements the live workflow registry: the stateful
// counterpart of the Engine's stateless request pipeline. A client
// registers a workflow once, attaches views, and from then on pays only
// deltas — each mutation batch updates the reachability closure
// incrementally (dag.IncrementalClosure), dirty-marks exactly the
// composites whose member adjacency or reachability rows changed, and
// revalidates only those (soundness.Revalidate), keeping every attached
// view's report permanently current. This is the continuous-monitoring
// workload the WOLVES paper motivates: views drift out of soundness as
// workflows evolve, and the registry catches the drift at mutation time
// instead of re-deriving the world per request.
//
// # Versioning
//
// Every live workflow carries a version, starting at 1 on registration
// and bumped by exactly one for each mutation batch that changes
// structure (a batch adding only duplicate edges is a no-op and does not
// bump). Mutation.IfVersion makes a batch conditional — it is rejected
// with ErrVersionConflict unless the live workflow is at exactly that
// version — giving read-modify-write clients optimistic concurrency.
// The workflow's content fingerprint remains available (WorkflowInfo);
// it is recomputed lazily per generation, never on the mutation path.
//
// # Concurrency
//
// The Registry itself is guarded by one mutex (map operations only).
// Each LiveWorkflow has its own RWMutex: mutations and view attachment
// take the write lock; validation, correction, lineage and snapshots
// share the read lock. Corrections hold the read lock for their whole
// run, so a long Optimal correction delays mutations of that workflow
// (bound it with WithOptimalTimeout) but never blocks other workflows.
//
// # Eviction
//
// The registry holds at most WithRegistryCapacity live workflows
// (DefaultRegistryCapacity when unset). Registering beyond capacity
// evicts the least-recently-used workflow — recency is bumped by
// RegisterCtx, Get and every operation reached through Get. Evicted (and
// deleted, and replaced) workflows are closed: operations through stale
// handles fail with ErrUnknownWorkflow rather than touching dead state.
//
// # Engine wiring
//
// The registry reuses the Engine's machinery rather than duplicating
// it: initial view validation fans composites over the Engine's worker
// pool, and corrections run through CorrectWithOracle (inheriting the
// Optimal timeout) against the live oracle.
// The Engine's oracle cache stays a plain LRU over stateless requests:
// snapshots are plain workflow copies and never touch it.

// DefaultRegistryCapacity is the live-workflow capacity used when
// WithRegistryCapacity is not given.
const DefaultRegistryCapacity = 256

// Registry is a concurrency-safe store of named live workflows.
// Construct with NewRegistry.
type Registry struct {
	eng      *Engine
	capacity int
	// journal receives every committed state transition (journal.go);
	// nil means purely in-memory. Set at construction (WithJournal) or
	// during setup (SetJournal) — not synchronized with live traffic.
	journal Journal

	// probeMin/probeMax bound the degraded-mode probe loop's backoff
	// (WithProbeBackoff); health is the degraded-mode state machine
	// (health.go).
	probeMin time.Duration
	probeMax time.Duration
	health   health

	mu     sync.Mutex
	lws    map[string]*LiveWorkflow
	useSeq uint64 // LRU clock: bumped on every touch
	// onClose are the hooks every dying workflow runs (OnClose).
	onClose []func(*LiveWorkflow)

	// viewLabelBuilds counts lifetime view-level (quotient) label-index
	// builds across epoch publications (see epoch.go).
	viewLabelBuilds atomic.Int64

	// restoring defers epoch publication during replay (BeginRestore /
	// EndRestore in journal.go). Read on every publication, written only
	// by the recovery driver around the replay.
	restoring atomic.Bool
}

// RegistryOption configures a Registry at construction time.
type RegistryOption func(*Registry)

// WithRegistryCapacity bounds the number of live workflows held at once;
// registering beyond it evicts the least recently used. n <= 0 means
// DefaultRegistryCapacity.
func WithRegistryCapacity(n int) RegistryOption {
	return func(r *Registry) {
		if n > 0 {
			r.capacity = n
		}
	}
}

// WithJournal installs a journal at construction time: every committed
// registry transition is handed to it (see Journal). The registry stays
// purely in-memory when no journal is given.
func WithJournal(j Journal) RegistryOption {
	return func(r *Registry) { r.journal = j }
}

// NewRegistry returns an empty registry backed by eng.
func NewRegistry(eng *Engine, opts ...RegistryOption) *Registry {
	r := &Registry{
		eng:      eng,
		capacity: DefaultRegistryCapacity,
		probeMin: DefaultProbeBackoffMin,
		probeMax: DefaultProbeBackoffMax,
		lws:      make(map[string]*LiveWorkflow),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// LiveWorkflow is one named, versioned, mutable workflow owned by a
// Registry, together with its incrementally maintained closure, oracle,
// label indexes and attached views. Obtain one with Registry.RegisterCtx
// or Registry.Get; all methods are safe for concurrent use.
type LiveWorkflow struct {
	reg *Registry
	id  string

	mu      sync.RWMutex
	closed  bool
	version uint64
	wf      *workflow.Workflow
	ic      *dag.IncrementalClosure
	oracle  *soundness.Oracle

	viewOrder []string
	views     map[string]*liveView

	// epoch is the published lock-free read snapshot (epoch.go):
	// rebuilt under the write lock after every committed transition,
	// handed to readers by Read. nil once the workflow is closed (and
	// while replay defers publication).
	epoch atomic.Pointer[ReadEpoch]

	used uint64 // registry LRU stamp, guarded by reg.mu
}

// liveView pairs an attached view with its permanently current report
// and the structures its epoch labels are carried across mutations with.
type liveView struct {
	v      *view.View
	report *soundness.Report
	// q is v's quotient graph, built once at attach; MutateCtx appends the
	// new singleton composites and the applied inter-composite edges.
	q *dag.Graph
	// labels/revLabels index q. MutateCtx drops them (nil) when a batch
	// adds a composite or a quotient edge not already reachable; the
	// next publication rebuilds them from q, every other one carries
	// them over unchanged.
	labels, revLabels *dag.Labels
}

// Mutation is a batch of structural additions to a live workflow. The
// batch is atomic: either every task and edge is applied, or none are.
type Mutation struct {
	// Tasks are appended to the workflow; in every attached view each
	// new task becomes its own singleton composite (ID = task ID), so
	// views remain partitions.
	Tasks []workflow.Task `json:"tasks,omitempty"`
	// Edges are task-ID pairs, applied in order. Endpoints may name
	// tasks added by this same batch. Duplicates of existing edges are
	// ignored; an edge that would create a cycle rejects (and rolls
	// back) the whole batch with ErrCycleRejected.
	Edges [][2]string `json:"edges,omitempty"`
	// IfVersion, when non-zero, rejects the batch with
	// ErrVersionConflict unless the live workflow is at exactly this
	// version.
	IfVersion uint64 `json:"if_version,omitempty"`
}

// ViewDelta describes how one attached view absorbed a mutation batch.
type ViewDelta struct {
	View string `json:"view"`
	// Sound is the view's soundness after the mutation.
	Sound bool `json:"sound"`
	// Revalidated lists the composite IDs whose reports were recomputed
	// (the dirty set), ascending by composite index.
	Revalidated []string `json:"revalidated,omitempty"`
	// Flipped lists the composites whose soundness changed.
	Flipped []string `json:"flipped,omitempty"`
	// Unsound lists every unsound composite after the mutation.
	Unsound []string `json:"unsound,omitempty"`
}

// MutationResult summarizes one applied mutation batch.
type MutationResult struct {
	Version    uint64 `json:"version"`
	TasksAdded int    `json:"tasks_added"`
	EdgesAdded int    `json:"edges_added"`
	// EdgesIgnored counts batch edges that already existed.
	EdgesIgnored int `json:"edges_ignored"`
	// DirtyTasks counts workflow tasks whose adjacency or reachability
	// row changed — the size of the invalidation frontier.
	DirtyTasks int         `json:"dirty_tasks"`
	Views      []ViewDelta `json:"views,omitempty"`
}

// WorkflowInfo is a metadata snapshot of a live workflow.
type WorkflowInfo struct {
	ID          string   `json:"id"`
	Version     uint64   `json:"version"`
	Fingerprint string   `json:"fingerprint"`
	Tasks       int      `json:"tasks"`
	Edges       int      `json:"edges"`
	Views       []string `json:"views"`
}

// LineageResult answers a provenance query against a live workflow and
// one of its views, contrasting exact task-level lineage with what a
// user of the view would conclude — the paper's motivating comparison.
type LineageResult struct {
	Task    string `json:"task"`
	Version uint64 `json:"version"`
	// ViewSound is the current soundness of the queried view; when
	// false, ViewLineage may contain false positives.
	ViewSound bool `json:"view_sound"`
	// WorkflowLineage is the exact answer: every task with a path to
	// Task, ascending by index.
	WorkflowLineage []string `json:"workflow_lineage"`
	// ViewLineage is the view-level answer: all members of all
	// composites upstream of Task's composite.
	ViewLineage []string `json:"view_lineage"`
	// CompositeLineage lists the upstream composite IDs.
	CompositeLineage []string `json:"composite_lineage"`
	// FalsePositives = ViewLineage \ WorkflowLineage: tasks the view
	// wrongly charges to Task's provenance (non-empty only for unsound
	// views).
	FalsePositives []string `json:"false_positives,omitempty"`
}

// RegisterCtx creates (or replaces) the live workflow named id, taking
// ownership of wf: the caller must not retain, mutate or concurrently
// read wf after registration. Views are attached separately
// (AttachViewCtx) so they can be decoded against the live object. The
// new workflow starts at version 1. ctx is threaded through to the
// journal (trace propagation; registration is never abandoned on
// cancellation).
func (r *Registry) RegisterCtx(ctx context.Context, id string, wf *workflow.Workflow) (*LiveWorkflow, error) {
	return r.register(ctx, id, wf, 1, true)
}

// register is RegisterCtx with an explicit starting version and journal
// switch; Restore re-enters here with journaling off. The new workflow's
// write lock is held from before publication until after the journal
// call, so a concurrent Get+Mutate cannot journal ahead of the
// registration record.
func (r *Registry) register(ctx context.Context, id string, wf *workflow.Workflow, version uint64, journal bool) (*LiveWorkflow, error) {
	if id == "" {
		return nil, errf(ErrBadInput, "register", "empty workflow id")
	}
	if wf == nil {
		return nil, errf(ErrBadInput, "register", "nil workflow")
	}
	if journal {
		if ee := r.checkWritable("register"); ee != nil {
			return nil, ee
		}
	}
	ic, err := dag.NewIncrementalClosure(wf.Graph())
	if err != nil {
		return nil, wrapErr("register", err)
	}
	lw := &LiveWorkflow{
		reg:     r,
		id:      id,
		version: version,
		wf:      wf,
		ic:      ic,
		views:   make(map[string]*liveView),
	}
	lw.repoint()
	lw.publishEpochLocked()

	lw.mu.Lock()
	r.mu.Lock()
	var replaced, evicted *LiveWorkflow
	if old, ok := r.lws[id]; ok {
		replaced = old
	} else if len(r.lws) >= r.capacity {
		evicted = r.lru()
		if evicted != nil {
			delete(r.lws, evicted.id)
		}
	}
	r.lws[id] = lw
	r.useSeq++
	lw.used = r.useSeq
	r.mu.Unlock()

	// A replaced workflow needs no journal delete: the registration
	// record (and snapshot) for the same ID supersedes its state on
	// replay. An evicted one is a genuine deletion of a different ID;
	// retire drains its in-flight journal calls and orders the delete
	// record against any racing re-registration of that ID.
	if replaced != nil {
		replaced.close()
	}
	if evicted != nil {
		if err := r.retire(ctx, evicted, journal); err != nil {
			// The new workflow is published and consistent in memory;
			// only the store is failing (and it is sticky). Unpublish so
			// the caller's failed Register leaves no trace.
			lw.mu.Unlock()
			r.unpublish(lw)
			lw.close()
			return nil, wrapErr("register", err)
		}
	}
	if journal && r.journal != nil {
		if err := r.journal.Registered(ctx, lw.stateLocked()); err != nil {
			// Like every journaled operation, the registration stays
			// applied in memory: the workflow it replaced is already
			// closed, and the probe's resync brings the store up to date.
			lw.mu.Unlock()
			return nil, r.JournalFault("register", err)
		}
	}
	lw.mu.Unlock()
	return lw, nil
}

// retire closes an unpublished-but-dying workflow and journals its
// deletion. Ordering matters in both directions: close() waits out any
// in-flight journal call of the dying incarnation (it blocks on the
// workflow's write lock), and the Deleted append happens under r.mu so
// a racing Register of the same ID — which must hold r.mu to publish
// before it may journal — cannot get its registration record into the
// WAL ahead of this delete record. If the ID was already re-registered
// by the time we get here, the delete record is skipped entirely: the
// newer registration record (and its snapshot) supersedes the old
// incarnation on replay, exactly like an in-place replacement.
func (r *Registry) retire(ctx context.Context, lw *LiveWorkflow, journal bool) error {
	lw.close()
	if !journal || r.journal == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, reborn := r.lws[lw.id]; reborn {
		return nil
	}
	return r.JournalFault("delete", r.journal.Deleted(ctx, lw.id))
}

// unpublish removes lw from the map if it is still the published entry:
// the rollback of a registration whose eviction of another workflow
// failed to journal. A registration whose own record fails to journal
// stays published (see register).
func (r *Registry) unpublish(lw *LiveWorkflow) {
	r.mu.Lock()
	if r.lws[lw.id] == lw {
		delete(r.lws, lw.id)
	}
	r.mu.Unlock()
}

// lru returns the least-recently-used live workflow; callers hold r.mu.
func (r *Registry) lru() *LiveWorkflow {
	var oldest *LiveWorkflow
	for _, lw := range r.lws {
		if oldest == nil || lw.used < oldest.used {
			oldest = lw
		}
	}
	return oldest
}

// Get returns the live workflow named id, bumping its recency.
func (r *Registry) Get(id string) (*LiveWorkflow, error) {
	r.mu.Lock()
	lw, ok := r.lws[id]
	if ok {
		r.useSeq++
		lw.used = r.useSeq
	}
	r.mu.Unlock()
	if !ok {
		return nil, errf(ErrUnknownWorkflow, "get", "no live workflow %q", id)
	}
	return lw, nil
}

// Peek is Get without the recency bump: maintenance sweeps (listing,
// checkpointing) must not reorder the LRU eviction queue underneath the
// traffic that actually drives it.
func (r *Registry) Peek(id string) (*LiveWorkflow, error) {
	r.mu.Lock()
	lw, ok := r.lws[id]
	r.mu.Unlock()
	if !ok {
		return nil, errf(ErrUnknownWorkflow, "peek", "no live workflow %q", id)
	}
	return lw, nil
}

// Capacity returns the registry's live-workflow capacity.
func (r *Registry) Capacity() int { return r.capacity }

// DeleteCtx unregisters and closes the live workflow named id, removing
// its durable state when a journal is installed (see retire for the
// ordering guarantees against a racing re-registration). ctx is
// threaded through to the journal.
func (r *Registry) DeleteCtx(ctx context.Context, id string) error {
	if r.journal != nil {
		if ee := r.checkWritable("delete"); ee != nil {
			return ee
		}
	}
	r.mu.Lock()
	lw, ok := r.lws[id]
	delete(r.lws, id)
	r.mu.Unlock()
	if !ok {
		return errf(ErrUnknownWorkflow, "delete", "no live workflow %q", id)
	}
	if err := r.retire(ctx, lw, true); err != nil {
		return wrapErr("delete", err)
	}
	return nil
}

// IDs returns the registered workflow IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.lws))
	for id := range r.lws {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Len returns the number of live workflows.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.lws)
}

// Infos returns a metadata snapshot of every live workflow, sorted by
// ID. Listing does not bump LRU recency (an operator enumerating the
// registry should not reorder the eviction queue).
func (r *Registry) Infos() []WorkflowInfo {
	r.mu.Lock()
	lws := make([]*LiveWorkflow, 0, len(r.lws))
	for _, lw := range r.lws {
		lws = append(lws, lw)
	}
	r.mu.Unlock()
	infos := make([]WorkflowInfo, 0, len(lws))
	for _, lw := range lws {
		if info, err := lw.Info(); err == nil { // skip concurrently deleted
			infos = append(infos, info)
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// OnClose registers fn to run each time a live workflow of r dies:
// deleted, replaced, evicted, or unpublished after a failed
// registration. fn runs once the workflow is marked closed under its
// write lock, so every operation that ran under that lock (State
// callbacks included) has finished and every later one finds the
// workflow closed. The run store frees the dead registration's runs
// here.
func (r *Registry) OnClose(fn func(lw *LiveWorkflow)) {
	r.mu.Lock()
	r.onClose = append(r.onClose, fn)
	r.mu.Unlock()
}

// close marks lw dead and runs the OnClose hooks; subsequent operations
// fail with ErrUnknownWorkflow.
func (lw *LiveWorkflow) close() {
	lw.mu.Lock()
	lw.closed = true
	// Lock-free readers must stop serving a dead registration: with the
	// epoch cleared, Read takes the lock and sees closed.
	lw.epoch.Store(nil)
	lw.mu.Unlock()
	lw.reg.mu.Lock()
	hooks := lw.reg.onClose
	lw.reg.mu.Unlock()
	for _, fn := range hooks {
		fn(lw)
	}
}

// repoint rebuilds the oracle over the current closure objects. Called
// whenever ic's matrices are replaced (registration, task growth,
// rollback); edge-only mutations update the matrices in place and need
// no repoint. Callers hold the write lock (or own lw exclusively).
func (lw *LiveWorkflow) repoint() {
	lw.oracle = soundness.NewOracleWithClosure(lw.wf, lw.ic.Graph(), lw.ic.Fwd())
}

// errClosed is the shared guard for operations on dead handles.
func (lw *LiveWorkflow) errClosed(op string) *Error {
	return errf(ErrUnknownWorkflow, op, "live workflow %q was deleted, replaced or evicted", lw.id)
}

// ID returns the registry key of the live workflow.
func (lw *LiveWorkflow) ID() string { return lw.id }

// Version returns the current version.
func (lw *LiveWorkflow) Version() uint64 {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	return lw.version
}

// Info returns a metadata snapshot.
func (lw *LiveWorkflow) Info() (WorkflowInfo, error) {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	if lw.closed {
		return WorkflowInfo{}, lw.errClosed("info")
	}
	return lw.infoLocked(), nil
}

// infoLocked builds the metadata under a held lock.
func (lw *LiveWorkflow) infoLocked() WorkflowInfo {
	return WorkflowInfo{
		ID:          lw.id,
		Version:     lw.version,
		Fingerprint: lw.wf.Fingerprint(),
		Tasks:       lw.wf.N(),
		Edges:       lw.wf.M(),
		Views:       append([]string(nil), lw.viewOrder...),
	}
}

// Snapshot returns an immutable deep copy of the live workflow at its
// current version.
func (lw *LiveWorkflow) Snapshot() (*workflow.Workflow, uint64, error) {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	if lw.closed {
		return nil, 0, lw.errClosed("snapshot")
	}
	return lw.wf.Clone(), lw.version, nil
}

// Resource returns the metadata and workflow snapshot as one consistent
// read (the GET resource body): both reflect the same version, which a
// torn Info-then-Snapshot pair would not guarantee under concurrent
// mutation.
func (lw *LiveWorkflow) Resource() (WorkflowInfo, *workflow.Workflow, error) {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	if lw.closed {
		return WorkflowInfo{}, nil, lw.errClosed("get")
	}
	return lw.infoLocked(), lw.wf.Clone(), nil
}

// AttachViewCtx decodes/builds a view against the live workflow under
// its write lock and attaches it as vid, replacing any previous view
// with that ID. The build callback must construct the view over exactly
// the workflow it is handed (a view built elsewhere cannot be attached:
// its graph pointers would go stale on the first mutation). The view is
// fully validated on attach — composites fan out over the Engine's
// worker pool — and its report is then maintained incrementally by every
// subsequent MutateCtx. The returned version is the one the report was
// validated under, read within the same critical section. ctx is
// threaded through to the journal.
func (lw *LiveWorkflow) AttachViewCtx(ctx context.Context, vid string, build func(wf *workflow.Workflow) (*view.View, error)) (*soundness.Report, uint64, error) {
	return lw.attachView(ctx, vid, build, true)
}

// attachView is AttachViewCtx with a journal switch; Restore re-enters here
// with journaling off.
func (lw *LiveWorkflow) attachView(ctx context.Context, vid string, build func(wf *workflow.Workflow) (*view.View, error), journal bool) (*soundness.Report, uint64, error) {
	if vid == "" {
		return nil, 0, errf(ErrBadInput, "attach", "empty view id")
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return nil, 0, lw.errClosed("attach")
	}
	if journal && lw.reg.journal != nil {
		if ee := lw.reg.checkWritable("attach"); ee != nil {
			return nil, 0, ee
		}
	}
	v, err := build(lw.wf)
	if err != nil {
		// Build failures are the client's input (malformed JSON, broken
		// partition, wrong workflow name): classify through wrapErr for
		// the typed sentinels, but never let them surface as internal.
		ee := wrapErr("attach", err)
		if ee.Code == ErrInternal {
			ee = &Error{Code: ErrBadInput, Op: "attach", Message: ee.Message, Err: err}
		}
		return nil, 0, ee
	}
	if v == nil {
		return nil, 0, errf(ErrBadInput, "attach", "nil view")
	}
	if v.Workflow() != lw.wf {
		return nil, 0, errf(ErrWorkflowMismatch, "attach",
			"view %q was not built against the live workflow", v.Name())
	}
	rep, err := soundness.ValidateViewParallelCtx(ctx, lw.oracle, v, lw.reg.eng.Workers())
	if err != nil {
		return nil, 0, wrapErr("attach", err)
	}
	if _, exists := lw.views[vid]; !exists {
		lw.viewOrder = append(lw.viewOrder, vid)
	}
	lw.views[vid] = &liveView{v: v, report: rep, q: v.Graph()}
	lw.publishEpochLocked()
	if journal && lw.reg.journal != nil {
		if err := lw.reg.journal.ViewAttached(ctx, lw.stateLocked(), vid, v); err != nil {
			return nil, 0, lw.reg.JournalFault("attach", err)
		}
	}
	return rep, lw.version, nil
}

// DetachViewCtx removes the view vid, threading ctx through to the
// journal.
func (lw *LiveWorkflow) DetachViewCtx(ctx context.Context, vid string) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return lw.errClosed("detach")
	}
	if lw.reg.journal != nil {
		if ee := lw.reg.checkWritable("detach"); ee != nil {
			return ee
		}
	}
	if _, ok := lw.views[vid]; !ok {
		return errf(ErrUnknownView, "detach", "no view %q on workflow %q", vid, lw.id)
	}
	delete(lw.views, vid)
	for i, id := range lw.viewOrder {
		if id == vid {
			lw.viewOrder = append(lw.viewOrder[:i], lw.viewOrder[i+1:]...)
			break
		}
	}
	lw.publishEpochLocked()
	if lw.reg.journal != nil {
		if err := lw.reg.journal.ViewDetached(ctx, lw.stateLocked(), vid); err != nil {
			return lw.reg.JournalFault("detach", err)
		}
	}
	return nil
}

// Report returns the incrementally maintained report of view vid and the
// workflow version it reflects. This is the registry's payoff: after the
// initial attach, reading a view's soundness is a map lookup, not a
// validation.
func (lw *LiveWorkflow) Report(vid string) (*soundness.Report, uint64, error) {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	if lw.closed {
		return nil, 0, lw.errClosed("report")
	}
	lv, ok := lw.views[vid]
	if !ok {
		return nil, 0, errf(ErrUnknownView, "report", "no view %q on workflow %q", vid, lw.id)
	}
	return lv.report, lw.version, nil
}

// Correct repairs every unsound composite of view vid under crit against
// the live oracle, returning the correction and a fresh report of the
// corrected view (always sound). The live view itself is not replaced —
// corrections are proposals; apply one by re-attaching the corrected
// view. The read lock is held for the whole run.
func (lw *LiveWorkflow) Correct(ctx context.Context, vid string, crit core.Criterion, opts *core.Options) (*core.ViewCorrection, *soundness.Report, uint64, error) {
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	if lw.closed {
		return nil, nil, 0, lw.errClosed("correct")
	}
	lv, ok := lw.views[vid]
	if !ok {
		return nil, nil, 0, errf(ErrUnknownView, "correct", "no view %q on workflow %q", vid, lw.id)
	}
	vc, err := lw.reg.eng.CorrectWithOracle(ctx, lw.oracle, lv.v, crit, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	rep, err := lw.reg.eng.ValidateWithOracle(ctx, lw.oracle, vc.Corrected)
	if err != nil {
		return nil, nil, 0, err
	}
	return vc, rep, lw.version, nil
}

// Lineage answers a provenance query for taskID through view vid,
// contrasting the exact workflow-level answer with the view-level one.
// It reads the epoch's labels; only the task lookup takes the read
// lock, and the epoch loaded under it is current.
func (lw *LiveWorkflow) Lineage(vid, taskID string) (*LineageResult, error) {
	lw.mu.RLock()
	closed := lw.closed
	ep := lw.epoch.Load()
	t, known := lw.wf.Index(taskID)
	lw.mu.RUnlock()
	if closed || ep == nil {
		return nil, lw.errClosed("lineage")
	}
	ev := ep.views[vid]
	if ev == nil {
		return nil, errf(ErrUnknownView, "lineage", "no view %q on workflow %q", vid, lw.id)
	}
	if !known {
		return nil, errf(ErrUnknownTask, "lineage", "no task %q in workflow %q", taskID, lw.id)
	}
	v, home := ev.v, ev.v.CompOf(t)
	// Mark t's ancestors and home's upstream composites once; every
	// membership test below is one bit probe, in ascending order.
	mp, cmp := dag.ScratchMark(ep.Tasks()), dag.ScratchMark(v.N())
	defer dag.ReleaseMark(mp)
	defer dag.ReleaseMark(cmp)
	mark, cmark := *mp, *cmp
	ep.rev.MarkRow(mark, t)
	ev.revLabels.MarkRow(cmark, home)
	// walk emits the answer's entries list by list: 0 CompositeLineage,
	// 1 WorkflowLineage, 2 ViewLineage, 3 FalsePositives. One pass
	// counts them and a second fills the lists, each exactly its
	// length, from one array.
	walk := func(emit func(list int, id string)) {
		for ci := 0; ci < v.N(); ci++ {
			if ci != home && ev.revLabels.Marked(cmark, ci) {
				emit(0, v.Composite(ci).ID)
			}
		}
		for u := 0; u < ep.Tasks(); u++ {
			exact := ep.rev.Marked(mark, u)
			if exact && u != t {
				emit(1, ep.taskIDs[u])
			}
			if cu := v.CompOf(u); cu != home && ev.revLabels.Marked(cmark, cu) {
				emit(2, ep.taskIDs[u])
				if !exact {
					emit(3, ep.taskIDs[u])
				}
			}
		}
	}
	var count [4]int
	walk(func(list int, _ string) { count[list]++ })
	var lists [4][]string
	all := make([]string, count[0]+count[1]+count[2]+count[3])
	for i, k := range count {
		lists[i], all = all[:0:k], all[k:]
	}
	walk(func(list int, id string) { lists[list] = append(lists[list], id) })
	res := &LineageResult{
		Task:            taskID,
		Version:         ep.version,
		ViewSound:       ev.sound,
		WorkflowLineage: lists[1],
		ViewLineage:     lists[2],
	}
	if count[0] > 0 {
		res.CompositeLineage = lists[0]
	}
	if count[3] > 0 {
		res.FalsePositives = lists[3]
	}
	return res, nil
}

// MutateCtx applies a batch of task and edge additions atomically: the
// whole batch is validated up front (IDs, duplicates, composite-ID
// collisions), edges are inserted one at a time with an O(1) cycle check
// against the live closure, and a mid-batch cycle rolls every prior
// insertion back before returning ErrCycleRejected. On success the
// closure has been updated incrementally, every attached view has been
// extended (new tasks become singleton composites) and revalidated over
// exactly its dirty composites, and the version has been bumped — unless
// the batch turned out to be a structural no-op (only duplicate edges),
// which leaves the version unchanged.
//
// The trace span ctx may carry covers the apply/revalidate/publish
// work, and a child span times the journal commit (the seam where
// group-commit stalls surface). Cancellation is observability-only — a
// batch that entered apply always commits or rolls back as one unit.
func (lw *LiveWorkflow) MutateCtx(ctx context.Context, m Mutation) (*MutationResult, error) {
	ctx, span := obs.StartSpan(ctx, "engine", "mutate")
	defer span.End()
	span.SetAttr("workflow", lw.id)
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return nil, lw.errClosed("mutate")
	}
	if m.IfVersion != 0 && m.IfVersion != lw.version {
		return nil, errf(ErrVersionConflict, "mutate",
			"workflow %q is at version %d, mutation requires %d", lw.id, lw.version, m.IfVersion)
	}
	// Degraded gate, checked before any state is touched: a mutation
	// rejected here leaves neither memory nor log changed. (A journal
	// failure below, by contrast, keeps the mutation in memory — see the
	// Journal failure contract in journal.go.)
	if lw.reg.journal != nil {
		if ee := lw.reg.checkWritable("mutate"); ee != nil {
			return nil, ee
		}
	}

	// --- preflight: reject everything rejectable before touching state.
	n0 := lw.wf.N()
	newIndex := make(map[string]int, len(m.Tasks))
	for i, t := range m.Tasks {
		if t.ID == "" {
			return nil, errf(ErrBadInput, "mutate", "task %d has an empty id", i)
		}
		if _, dup := lw.wf.Index(t.ID); dup {
			return nil, errf(ErrBadInput, "mutate", "task %q already exists", t.ID)
		}
		if _, dup := newIndex[t.ID]; dup {
			return nil, errf(ErrBadInput, "mutate", "task %q duplicated in batch", t.ID)
		}
		for _, vid := range lw.viewOrder {
			if _, clash := lw.views[vid].v.CompIndex(t.ID); clash {
				return nil, errf(ErrBadInput, "mutate",
					"task %q collides with a composite of view %q", t.ID, vid)
			}
		}
		newIndex[t.ID] = n0 + i
	}
	resolve := func(id string) (int, bool) {
		if i, ok := lw.wf.Index(id); ok {
			return i, true
		}
		i, ok := newIndex[id]
		return i, ok
	}
	edgeIdx := make([][2]int, len(m.Edges))
	for i, e := range m.Edges {
		u, ok := resolve(e[0])
		if !ok {
			return nil, errf(ErrUnknownTask, "mutate", "edge %q→%q: unknown task %q", e[0], e[1], e[0])
		}
		v, ok := resolve(e[1])
		if !ok {
			return nil, errf(ErrUnknownTask, "mutate", "edge %q→%q: unknown task %q", e[0], e[1], e[1])
		}
		if u == v {
			return nil, errf(ErrBadInput, "mutate", "edge %q→%q is a self-dependency", e[0], e[1])
		}
		edgeIdx[i] = [2]int{u, v}
	}

	// --- apply: tasks first (cannot fail past preflight), then edges
	// with live cycle checks.
	if len(m.Tasks) > 0 {
		if _, err := lw.wf.ExtendTasks(m.Tasks); err != nil {
			return nil, errf(ErrInternal, "mutate", "task extension failed past preflight: %v", err)
		}
		lw.ic.Grow(len(m.Tasks))
		lw.repoint()
	}
	dirty := bitset.New(lw.wf.N())
	applied := make([][2]int, 0, len(edgeIdx))
	added, ignored := 0, 0
	for i, e := range edgeIdx {
		ok, err := lw.ic.AddEdge(e[0], e[1], dirty)
		if err != nil {
			// Roll the whole batch back: pop applied edges, shrink the
			// graph and task list, rebuild the closure and labels (not
			// when nothing was applied yet), repoint.
			lw.ic.Rollback(n0, applied)
			lw.wf.TruncateTasks(n0)
			lw.repoint()
			if errors.Is(err, dag.ErrCycle) {
				return nil, errf(ErrCycleRejected, "mutate",
					"edge %q→%q would create a dependency cycle; batch rolled back",
					m.Edges[i][0], m.Edges[i][1])
			}
			return nil, wrapErr("mutate", err)
		}
		if ok {
			applied = append(applied, e)
			added++
		} else {
			ignored++
		}
	}

	res := &MutationResult{
		TasksAdded:   len(m.Tasks),
		EdgesAdded:   added,
		EdgesIgnored: ignored,
		DirtyTasks:   dirty.Count(),
	}
	if len(m.Tasks) == 0 && added == 0 {
		// Structural no-op: nothing to revalidate, version unchanged.
		res.Version = lw.version
		return res, nil
	}
	if added > 0 {
		lw.wf.StructureChanged()
	}

	// --- revalidate attached views over their dirty composites only.
	for _, vid := range lw.viewOrder {
		lv := lw.views[vid]
		oldK := lv.v.N()
		prev := lv.report
		if len(m.Tasks) > 0 {
			nv, err := lv.v.ExtendSingletons()
			if err != nil {
				// Unreachable: collisions are prechecked above.
				panic(fmt.Sprintf("engine: view %q extension failed past preflight: %v", vid, err))
			}
			lv.v = nv
		}
		lv.extendQuotient(oldK, applied)
		dirtyComps := soundness.DirtyComposites(lv.v, dirty, oldK)
		delta := soundness.Revalidate(lw.oracle, lv.v, dirtyComps)
		lv.report = soundness.Merge(prev, delta, lv.v)

		vd := ViewDelta{View: vid, Sound: lv.report.Sound}
		for _, ci := range dirtyComps {
			id := lv.v.Composite(ci).ID
			vd.Revalidated = append(vd.Revalidated, id)
			if ci < oldK && ci < len(prev.Composites) &&
				prev.Composites[ci].Sound != lv.report.Composites[ci].Sound {
				vd.Flipped = append(vd.Flipped, id)
			}
		}
		for _, ci := range lv.report.Unsound {
			vd.Unsound = append(vd.Unsound, lv.v.Composite(ci).ID)
		}
		res.Views = append(res.Views, vd)
	}

	lw.version++
	res.Version = lw.version
	lw.publishEpochLocked()

	// Journal the committed batch: the tasks appended plus the edges
	// actually inserted (duplicates dropped), so replay from the same
	// pre-state is deterministic. One buffered append on the hot path;
	// snapshot policy and fsync batching live behind the interface.
	if j := lw.reg.journal; j != nil {
		edges := make([][2]string, len(applied))
		for i, e := range applied {
			edges[i] = [2]string{lw.wf.Task(e[0]).ID, lw.wf.Task(e[1]).ID}
		}
		jctx, jspan := obs.StartSpan(ctx, "engine", "journal.commit")
		err := j.Committed(jctx, &AppliedBatch{Tasks: m.Tasks, Edges: edges}, lw.stateLocked())
		jspan.End()
		if err != nil {
			return nil, lw.reg.JournalFault("mutate", err)
		}
	}
	return res, nil
}

// extendQuotient brings lv's maintained quotient graph up to date with
// a committed batch — the composites past oldK are the batch's new
// singletons; applied are its inserted task edges — and drops the label
// pair unless the batch left quotient reachability unchanged: no
// composite added, and every new inter-composite edge (cu, cv) already
// implied by a path cu→…→cv.
func (lv *liveView) extendQuotient(oldK int, applied [][2]int) {
	if k := lv.v.N() - oldK; k > 0 {
		lv.q.AddNodes(k)
		lv.labels, lv.revLabels = nil, nil
	}
	for _, e := range applied {
		cu, cv := lv.v.CompOf(e[0]), lv.v.CompOf(e[1])
		if cu == cv {
			continue
		}
		lv.q.MustAddEdge(cu, cv)
		if lv.labels != nil && !lv.labels.Reaches(cu, cv) {
			lv.labels, lv.revLabels = nil, nil
		}
	}
}
