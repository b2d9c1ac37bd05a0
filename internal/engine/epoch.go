package engine

import (
	"sync/atomic"

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
// traffic stops contending with mutations entirely. The only lazily
// filled piece is the audited level's provenance audit, which must read
// live closure rows: the first audited query per (view, version) takes
// the read lock once to build it and caches it on the epoch — every
// later audited query at that version is lock-free again.

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
	// filled by LiveWorkflow.Read under the read lock on the first
	// audited query.
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
// It is lock-free when the epoch is published and the audit cached.
// Otherwise it takes the read lock once: the epoch loaded under it is
// current, because every publication runs under the write lock, so
// version drift cannot fail it; the audit it builds there is cached on
// the epoch for every later reader. A workflow without an epoch is
// closed — replay publishes before the registry serves (BeginRestore)
// — and Read fails with ErrUnknownWorkflow.
func (lw *LiveWorkflow) Read(auditView string) (*ReadEpoch, *provenance.ViewAudit, error) {
	if ep := lw.epoch.Load(); ep != nil {
		if a, ok := ep.cachedAudit(auditView); ok {
			return ep, a, nil
		}
	}
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	ep := lw.epoch.Load()
	if lw.closed || ep == nil {
		return nil, nil, lw.errClosed("read")
	}
	if a, ok := ep.cachedAudit(auditView); ok {
		return ep, a, nil
	}
	obs.MAuditCacheMisses.Inc()
	ev := ep.views[auditView]
	a := provenance.AuditView(lw.prov, ev.v)
	ev.audit.Store(a)
	return ep, a, nil
}

// cachedAudit is Read's answer without building anything: ok is false
// only when view vid is in the epoch with no audit cached yet.
func (ep *ReadEpoch) cachedAudit(vid string) (*provenance.ViewAudit, bool) {
	if vid == "" {
		return nil, true
	}
	ev := ep.views[vid]
	if ev == nil {
		return nil, true
	}
	a := ev.audit.Load()
	if a != nil {
		obs.MAuditCacheHits.Inc()
	}
	return a, a != nil
}

// publishEpochLocked rebuilds and atomically publishes the read epoch.
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
		qg := lv.v.Graph()
		ep.views[vid] = &EpochView{
			v:         lv.v,
			sound:     lv.report.Sound,
			labels:    dag.BuildLabels(qg),
			revLabels: dag.BuildLabels(qg.Reversed()),
		}
		lw.reg.viewLabelBuilds.Add(1)
	}
	lw.epoch.Store(ep)
	obs.MEpochPublishes.Inc()
}

// LabelStats aggregates label-index counters for /v1/stats: lifetime
// build/rebuild/patch counts summed over resident workflows, plus the
// resident interval count and memory footprint of every live index
// (task-level and per-view).
type LabelStats struct {
	// Workflows counts resident workflows serving from a published
	// epoch.
	Workflows int `json:"workflows"`
	// Builds / Rebuilds / Patches are task-level index counters summed
	// over resident workflows: full builds, rebuilds forced past the
	// patch damage threshold, and incremental edge patches.
	Builds   int64 `json:"builds"`
	Rebuilds int64 `json:"rebuilds"`
	Patches  int64 `json:"patches"`
	// ViewBuilds is the lifetime count of view-level (quotient) label
	// builds across all publications.
	ViewBuilds int64 `json:"view_builds"`
	// Intervals / MemoryBytes cover every resident index, task-level
	// and view-level.
	Intervals   int64 `json:"intervals"`
	MemoryBytes int64 `json:"memory_bytes"`
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
		st.Workflows++
		st.Intervals += int64(ep.labels.Intervals()) + int64(ep.rev.Intervals())
		st.MemoryBytes += ep.labels.MemoryBytes() + ep.rev.MemoryBytes()
		for _, ev := range ep.views {
			st.Intervals += int64(ev.labels.Intervals()) + int64(ev.revLabels.Intervals())
			st.MemoryBytes += ev.labels.MemoryBytes() + ev.revLabels.MemoryBytes()
		}
	}
	return st
}
