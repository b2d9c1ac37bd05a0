package engine

import (
	"sync/atomic"
	"time"

	"wolves/internal/dag"
	"wolves/internal/obs"
	"wolves/internal/provenance"
	"wolves/internal/view"
)

// This file implements the epoch-stamped, lock-free read session behind
// every lineage answer. Every committed state transition (registration,
// mutation, view attach/detach — the restore paths re-enter the same
// functions) publishes a fresh ReadEpoch through an atomic pointer: an
// immutable snapshot of exactly what a lineage query needs — the
// workflow version, the task-ID table, a forked reachability label
// index, and per-view label indexes over the quotient graphs. The label
// indexes are total (dag.BuildLabels never fails), so every published
// epoch answers every query. Readers get it through LiveWorkflow.Read
// and serve without touching the workflow's RWMutex, so heavy read
// traffic stops contending with mutations entirely.
//
// Publication costs what the transition changed. The task labels are
// patched in place by the incremental closure and forked; a view's
// labels are carried over from the previous epoch unless the batch
// changed its quotient's reachability, in which case they are rebuilt
// from the quotient graph the registry maintains (liveView.q) — never
// from the workflow. The audited level's provenance audit is the one
// lazily filled piece: the first audited query per (view, version)
// derives it from the epoch's own labels (provenance.AuditLabels),
// still without the workflow lock, and caches it on the epoch. A build
// runs over flat bit matrices at a fixed number of allocations; its
// wall time is the wolves_audit_build_seconds histogram.

// ReadEpoch is an immutable snapshot of one live workflow version for
// lock-free lineage reads. Obtain one with LiveWorkflow.Read.
type ReadEpoch struct {
	version uint64
	taskIDs []string
	labels  *dag.Labels
	rev     *dag.Labels
	views   map[string]*EpochView
}

// EpochView is the per-view slice of a ReadEpoch: the immutable view
// object of that version, its soundness at publication, a label index
// over the quotient graph, and the lazily cached provenance audit. A
// republish that keeps the version and the view object reuses it
// whole, audit included.
type EpochView struct {
	v     *view.View
	sound bool
	// labels/revLabels are the composite-level label indexes (forward
	// and ancestor direction).
	labels    *dag.Labels
	revLabels *dag.Labels
	// audit caches the provenance audit for this epoch's version,
	// filled by LiveWorkflow.Read on the first audited query.
	audit atomic.Pointer[provenance.ViewAudit]
}

// Version returns the workflow version the epoch snapshots.
func (ep *ReadEpoch) Version() uint64 { return ep.version }

// TaskID returns the ID of task index u at the epoch's version.
func (ep *ReadEpoch) TaskID(u int) string { return ep.taskIDs[u] }

// Tasks returns the number of tasks at the epoch's version.
func (ep *ReadEpoch) Tasks() int { return len(ep.taskIDs) }

// Labels returns the task-level reachability label index.
func (ep *ReadEpoch) Labels() *dag.Labels { return ep.labels }

// RevLabels returns the ancestor-direction task-level index:
// RevLabels().Reaches(v, u) ⇔ u reaches v.
func (ep *ReadEpoch) RevLabels() *dag.Labels { return ep.rev }

// View returns the epoch's snapshot of view vid, or nil when the view
// was not attached at this version.
func (ep *ReadEpoch) View(vid string) *EpochView { return ep.views[vid] }

// View returns the immutable view object (views are replaced wholesale
// on mutation, never mutated in place).
func (ev *EpochView) View() *view.View { return ev.v }

// Sound reports the view's maintained soundness at the epoch's version.
func (ev *EpochView) Sound() bool { return ev.sound }

// Labels returns the composite-level label index.
func (ev *EpochView) Labels() *dag.Labels { return ev.labels }

// RevLabels returns the ancestor-direction composite-level index.
func (ev *EpochView) RevLabels() *dag.Labels { return ev.revLabels }

// Read hands a reader the published read epoch and, when auditView
// names one of its views, that view's provenance audit pinned to the
// epoch (nil when the epoch has no such view; the caller reports it).
// It never takes the workflow's lock: an uncached audit is derived from
// the epoch's own labels, and concurrent first readers may each build
// one — the first CompareAndSwap wins and every reader returns the
// cached audit. A workflow without an epoch is closed — replay
// publishes before the registry serves (BeginRestore) — and Read fails
// with ErrUnknownWorkflow.
func (lw *LiveWorkflow) Read(auditView string) (*ReadEpoch, *provenance.ViewAudit, error) {
	ep := lw.epoch.Load()
	if ep == nil {
		return nil, nil, lw.errClosed("read")
	}
	ev := ep.views[auditView]
	if ev == nil {
		return ep, nil, nil
	}
	if a := ev.audit.Load(); a != nil {
		obs.MAuditCacheHits.Inc()
		return ep, a, nil
	}
	obs.MAuditCacheMisses.Inc()
	start := time.Now()
	a := provenance.AuditLabels(ev.v, ep.labels, ev.revLabels)
	obs.MAuditBuild.ObserveDuration(time.Since(start))
	if !ev.audit.CompareAndSwap(nil, a) {
		a = ev.audit.Load()
	}
	return ep, a, nil
}

// publishEpochLocked assembles and atomically publishes the read epoch,
// carrying every view's labels over unless MutateCtx dropped them.
// Callers hold the write lock (or own lw exclusively, pre-publication).
func (lw *LiveWorkflow) publishEpochLocked() {
	if lw.reg.restoring.Load() {
		// Replay mode (Registry.BeginRestore): defer the rebuild until
		// EndRestore, before the registry serves.
		lw.epoch.Store(nil)
		return
	}
	old := lw.epoch.Load()
	ep := &ReadEpoch{
		version: lw.version,
		taskIDs: make([]string, lw.wf.N()),
		labels:  lw.ic.Labels().Fork(),
		rev:     lw.ic.RevLabels().Fork(),
		views:   make(map[string]*EpochView, len(lw.views)),
	}
	// The task-ID table is copied: ExtendTasks appends to the live
	// workflow's slice in place, so sharing the header with lock-free
	// readers would race.
	for i := range ep.taskIDs {
		ep.taskIDs[i] = lw.wf.Task(i).ID
	}
	for vid, lv := range lw.views {
		if old != nil && old.version == lw.version {
			// Same version, same view object: same quotient graph and
			// report, so its labels and audit carry over.
			if ev := old.views[vid]; ev != nil && ev.v == lv.v {
				ep.views[vid] = ev
				continue
			}
		}
		if lv.labels == nil {
			lv.labels, lv.revLabels = dag.BuildLabelPair(lv.q)
			lw.reg.viewLabelBuilds.Add(1)
		}
		ep.views[vid] = &EpochView{
			v:         lv.v,
			sound:     lv.report.Sound,
			labels:    lv.labels,
			revLabels: lv.revLabels,
		}
	}
	lw.epoch.Store(ep)
	obs.MEpochPublishes.Inc()
}

// LabelStats aggregates label-index counters for /metrics: lifetime
// build/rebuild/patch counts summed over resident workflows, plus the
// resident memory footprint of every live index (task-level and
// per-view).
type LabelStats struct {
	// Builds / Rebuilds / Patches are task-level index counters summed
	// over resident workflows: full builds, rebuilds forced once patching
	// doubled an index pair's size, and incremental edge patches.
	Builds   int64
	Rebuilds int64
	Patches  int64
	// ViewBuilds is the lifetime count of view-level (quotient) label
	// pair builds: one per attach, plus one per publication after a
	// batch that changed the quotient's reachability.
	ViewBuilds int64
	// MemoryBytes covers every resident index, task-level and
	// view-level.
	MemoryBytes int64
}

// LabelStats sweeps the resident workflows and aggregates their
// label-index counters.
func (r *Registry) LabelStats() LabelStats {
	r.mu.Lock()
	lws := make([]*LiveWorkflow, 0, len(r.lws))
	for _, lw := range r.lws {
		lws = append(lws, lw)
	}
	r.mu.Unlock()

	st := LabelStats{ViewBuilds: r.viewLabelBuilds.Load()}
	for _, lw := range lws {
		lw.mu.RLock()
		if lw.closed {
			lw.mu.RUnlock()
			continue
		}
		st.Builds += lw.ic.LabelBuilds()
		st.Rebuilds += lw.ic.LabelRebuilds()
		st.Patches += lw.ic.LabelPatches()
		ep := lw.epoch.Load()
		lw.mu.RUnlock()
		if ep == nil {
			continue
		}
		st.MemoryBytes += ep.labels.MemoryBytes() + ep.rev.MemoryBytes()
		for _, ev := range ep.views {
			st.MemoryBytes += ev.labels.MemoryBytes() + ev.revLabels.MemoryBytes()
		}
	}
	return st
}
