package storage

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// RecoveryStats summarizes what RecoverWithRuns rebuilt.
type RecoveryStats struct {
	// Workflows and Views count what the recovered registry holds.
	Workflows int `json:"workflows"`
	Views     int `json:"views"`
	// Snapshots counts snapshot documents restored; SnapshotsDropped
	// counts corrupt or undecodable ones that were discarded (their
	// workflows may still have been rebuilt from WAL records).
	Snapshots        int `json:"snapshots"`
	SnapshotsDropped int `json:"snapshots_dropped"`
	// Segments counts the WAL segment files scanned during replay.
	Segments int `json:"segments"`
	// Replayed and Skipped count WAL records applied vs already covered
	// by a snapshot (or referencing a workflow evicted during restore).
	Replayed int64 `json:"replayed"`
	Skipped  int64 `json:"skipped"`
	// Runs counts execution traces restored into the run store — from
	// snapshot-embedded documents and uncovered WAL run records alike.
	// Zero when recovery ran without a run restorer.
	Runs int64 `json:"runs"`
	// TornBytes is how much of the last segment the crash tore off.
	TornBytes int64 `json:"torn_bytes"`
	// Workers is the parallelism replay actually ran with (it can be
	// lower than Options.RecoveryWorkers when the capacity headroom
	// forces the sequential path); WallMillis the recovery wall time.
	Workers    int   `json:"workers"`
	WallMillis int64 `json:"wall_millis"`
}

// RunRestorer re-ingests recovered run documents; the run store
// (internal/runs) implements it. RestoreRun must bypass the journal (the
// document being restored is already durable) and must be idempotent by
// run ID — replay may re-apply a run a snapshot already restored.
type RunRestorer interface {
	RestoreRun(workflowID, runID string, doc []byte) error
}

// RecoverWithRuns rebuilds reg (and, when rr is non-nil, the run store
// behind it) from the store: snapshots first (each workflow's snapshot
// is independent, so they load and decode on a worker pool), then every
// WAL record not covered by a snapshot, in log order. View reports are
// recomputed by validation — byte-identical to the incrementally
// maintained reports of the pre-crash registry — and runs are re-ingested
// through the ordinary validation path, so their lineage answers are
// byte-identical too. Call it exactly once, on a registry that is not
// yet serving traffic and has no journal installed; install the store
// with reg.SetJournal (and the run store's SetJournal) afterwards. With
// a nil rr, run records and snapshot-embedded runs are skipped (counted,
// not applied); registries that never ingested runs lose nothing.
//
// Replay parallelism (Options.RecoveryWorkers) is a pipeline: one
// reader scans the segments in order, a pool of workers decodes and
// validates record bodies ahead of the apply cursor, and application
// fans out across per-workflow partitions — records of one workflow
// apply in strict LSN order, distinct workflows in parallel (their
// registry entries and run shards are lock-independent). The parallel
// path is equivalence-pinned against RecoveryWorkers=1, the sequential
// reference.
func (s *Store) RecoverWithRuns(reg *engine.Registry, rr RunRestorer) (*RecoveryStats, error) {
	start := time.Now()
	s.mu.Lock()
	if s.recovered {
		s.mu.Unlock()
		return nil, errors.New("storage: RecoverWithRuns called twice")
	}
	if s.failed != nil {
		s.mu.Unlock()
		return nil, s.failed
	}
	snaps, corrupt := s.snaps, s.corrupt
	s.snaps, s.corrupt = nil, nil
	s.mu.Unlock()

	workers := s.opts.RecoveryWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background() //lint:allow ctxpass replay of durable state: journaling is off, nothing downstream to trace or cancel

	// Replay mode: defer per-record epoch publication (and the per-view
	// label rebuilds inside it) until the registry is fully restored —
	// one publication per workflow instead of one per record.
	reg.BeginRestore()
	defer reg.EndRestore()

	stats := &RecoveryStats{TornBytes: s.tornBytes, Workers: workers}
	snapLSN := make(map[string]uint64, len(snaps))
	snapSize := make(map[string]int64, len(snaps))
	for _, ls := range snaps {
		snapLSN[ls.doc.ID] = ls.doc.LSN
		snapSize[ls.doc.ID] = ls.size
	}
	// Refuse rather than truncate: if at any point of the replay the
	// registry would hold more workflows than its capacity, the LRU
	// would evict the overflow — and during recovery an eviction means
	// a durable workflow silently missing from the restored registry. A
	// misconfigured -live-workflows must fail the boot, not lose data.
	// The pre-pass simulates exactly the ID-level lifecycle the replay
	// will perform (snapshots, then uncovered register/delete records)
	// and checks the peak concurrent population; it also reports the
	// no-deletion upper bound that gates parallel apply below.
	peak, upper, err := s.replayPopulation(snapLSN)
	if err != nil {
		return stats, err
	}
	if peak > reg.Capacity() {
		return stats, fmt.Errorf("storage: replay needs room for %d workflows but the registry capacity is %d; raise -live-workflows",
			peak, reg.Capacity())
	}
	for _, path := range corrupt {
		s.fs.Remove(path)
		stats.SnapshotsDropped++
	}
	if err := s.restoreSnapshots(ctx, reg, rr, snaps, snapLSN, snapSize, stats, workers); err != nil {
		return stats, err
	}

	deleted := make(map[string]bool)
	paths := s.wal.segmentPaths()
	stats.Segments = len(paths)
	// Parallel apply reorders deletes relative to other workflows'
	// records, so the transient population can reach the no-deletion
	// upper bound; when that exceeds the capacity (sequential peak fits,
	// thanks to interleaved deletes), an LRU eviction — silent data loss
	// — becomes possible and the sequential path is the only safe one.
	replayWorkers := workers
	if upper > reg.Capacity() {
		replayWorkers = 1
	}
	stats.Workers = replayWorkers
	if replayWorkers > 1 {
		err = s.replayParallel(ctx, reg, rr, paths, snapLSN, deleted, stats, replayWorkers)
	} else {
		err = s.replaySequential(ctx, reg, rr, paths, snapLSN, deleted, stats)
	}
	if err != nil {
		return stats, err
	}

	// Reconcile bookkeeping with what actually survived: workflows the
	// registry holds keep their snapshot coverage. A snapshot file is
	// removed only when a replayed delete record explains its absence —
	// never merely because the workflow is missing from the registry —
	// so no recovery path can silently destroy durable state.
	live := make(map[string]bool)
	for _, id := range reg.IDs() {
		live[id] = true
		stats.Workflows++
	}
	for _, info := range reg.Infos() {
		stats.Views += len(info.Views)
	}
	s.mu.Lock()
	s.wfs = make(map[string]*wfState, len(live))
	for id := range live {
		// Seed lastSnapBytes from the restored snapshot so the
		// size-proportional trigger survives restarts; a workflow
		// restored from WAL records alone starts at the floor and
		// self-corrects on its first snapshot.
		s.wfs[id] = &wfState{snapLSN: snapLSN[id], lastSnapBytes: snapSize[id]}
	}
	s.recovered = true
	s.mu.Unlock()
	for _, ls := range snaps {
		if !live[ls.doc.ID] && deleted[ls.doc.ID] {
			s.fs.Remove(ls.path)
		}
	}
	stats.WallMillis = time.Since(start).Milliseconds()
	obs.MRecoveryRecords.Add(uint64(stats.Replayed))
	obs.MRecoveryRuns.Add(uint64(stats.Runs))
	obs.MRecoverySeconds.Set(stats.WallMillis)
	return stats, nil
}

// replayPopulation simulates the ID-level lifecycle the replay will
// perform — snapshot-restored workflows plus uncovered register/delete
// records in log order — and returns the maximum number of workflows
// alive at any point (peak), plus the count alive if no delete ever
// applied (upper): the worst transient population parallel replay can
// reach when deletes of one workflow apply after registers of others.
func (s *Store) replayPopulation(snapLSN map[string]uint64) (peak, upper int, err error) {
	alive := make(map[string]bool, len(snapLSN))
	ever := make(map[string]bool, len(snapLSN))
	for id := range snapLSN {
		alive[id] = true
		ever[id] = true
	}
	peak = len(alive)
	paths := s.wal.segmentPaths()
	for i, path := range paths {
		_, _, serr := scanSegment(s.fs, path, i == len(paths)-1, func(rec record) error {
			if rec.typ != recRegister && rec.typ != recDelete {
				return nil
			}
			id, derr := recordWorkflowID(rec.body)
			if derr != nil {
				return fmt.Errorf("storage: replay pre-pass lsn %d: %w", rec.lsn, derr)
			}
			if rec.lsn <= snapLSN[id] {
				return nil
			}
			if rec.typ == recRegister {
				ever[id] = true
				if !alive[id] {
					alive[id] = true
					if len(alive) > peak {
						peak = len(alive)
					}
				}
			} else {
				delete(alive, id)
			}
			return nil
		})
		if serr != nil {
			return 0, 0, serr
		}
	}
	return peak, len(ever), nil
}

// decodeError marks snapshot/record payloads that fail to decode.
type decodeError struct{ err error }

func (e *decodeError) Error() string { return e.err.Error() }
func (e *decodeError) Unwrap() error { return e.err }

// restoreSnapshots restores every loaded snapshot into reg. Snapshots
// are per-workflow and their IDs are distinct (one file per ID), so
// with workers > 1 they restore concurrently — Registry.Restore and the
// run restorer are safe for distinct workflow IDs. Corrupt documents
// are dropped under mu (file removed, coverage cleared so the WAL's
// history for that workflow replays in full); real errors abort.
func (s *Store) restoreSnapshots(ctx context.Context, reg *engine.Registry, rr RunRestorer, snaps []loadedSnapshot,
	snapLSN map[string]uint64, snapSize map[string]int64, stats *RecoveryStats, workers int) error {
	if workers > len(snaps) {
		workers = len(snaps)
	}
	if workers <= 1 {
		for _, ls := range snaps {
			if err := restoreSnapshot(ctx, reg, rr, &ls.doc, stats); err != nil {
				if _, ok := err.(*decodeError); ok {
					// A snapshot that does not decode is a half-written file
					// from an unsynced crash: drop it (and its record
					// coverage) and fall back to whatever the log still says.
					reg.DeleteCtx(ctx, ls.doc.ID) // drop any partially restored state
					s.fs.Remove(ls.path)
					delete(snapLSN, ls.doc.ID)
					delete(snapSize, ls.doc.ID)
					stats.SnapshotsDropped++
					continue
				}
				return err
			}
			stats.Snapshots++
		}
		return nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	idxc := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				if stop.Load() {
					continue
				}
				ls := snaps[i]
				var local RecoveryStats
				err := restoreSnapshot(ctx, reg, rr, &ls.doc, &local)
				func() {
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err == nil:
						stats.Snapshots++
						stats.Runs += local.Runs
					default:
						if _, ok := err.(*decodeError); ok {
							reg.DeleteCtx(ctx, ls.doc.ID)
							s.fs.Remove(ls.path)
							delete(snapLSN, ls.doc.ID)
							delete(snapSize, ls.doc.ID)
							stats.SnapshotsDropped++
						} else if firstErr == nil {
							firstErr = err
							stop.Store(true)
						}
					}
				}()
			}
		}()
	}
	for i := range snaps {
		idxc <- i
	}
	close(idxc)
	wg.Wait()
	return firstErr
}

// restoreSnapshot registers one snapshot document into reg and
// re-ingests its embedded runs.
func restoreSnapshot(ctx context.Context, reg *engine.Registry, rr RunRestorer, doc *snapshotDoc, stats *RecoveryStats) error {
	wf, err := workflow.DecodeBytes(doc.Workflow)
	if err != nil {
		return &decodeError{fmt.Errorf("snapshot %q: %w", doc.ID, err)}
	}
	views := make([]engine.RestoredView, 0, len(doc.Views))
	for _, sv := range doc.Views {
		raw := sv.View
		views = append(views, engine.RestoredView{ID: sv.ID, Build: func(wf *workflow.Workflow) (*view.View, error) {
			return view.DecodeBytes(wf, raw)
		}})
	}
	if _, err := reg.Restore(ctx, doc.ID, doc.Version, wf, views); err != nil {
		return &decodeError{fmt.Errorf("snapshot %q: %w", doc.ID, err)}
	}
	if rr == nil {
		return nil
	}
	for _, sr := range doc.Runs {
		if err := rr.RestoreRun(doc.ID, sr.ID, sr.Doc); err != nil {
			// A run that no longer validates against its own snapshot is a
			// half-written document from an unsynced crash: treat it like a
			// corrupt snapshot and fall back to the WAL's history.
			return &decodeError{fmt.Errorf("snapshot %q: run %q: %w", doc.ID, sr.ID, err)}
		}
		stats.Runs++
	}
	return nil
}

// decodedRec is one WAL record with its body parsed and validated,
// ready to apply. Decoding is the CPU-heavy half of replay (JSON or
// binwire body parse, plus the workflow document decode on register
// records); the parallel path runs it on a worker pool ahead of the
// apply cursor.
type decodedRec struct {
	lsn  uint64
	typ  byte
	wfID string
	skip bool // snapshot-covered: counted, not applied

	wf  *workflow.Workflow // register: decoded workflow document
	reg *registerBody
	mut *mutateBody
	att *attachBody
	det *detachBody
	del *deleteBody
	run *runBody
}

// decodeRecord parses one record's body (sniffing binary vs compat
// JSON), resolves its workflow ID, and pre-decodes the embedded
// workflow document for uncovered register records. The snapLSN map is
// read-only during replay, so decodeRecord is safe to call from many
// goroutines at once.
func decodeRecord(rec record, snapLSN map[string]uint64) (*decodedRec, error) {
	fail := func(err error) (*decodedRec, error) {
		return nil, fmt.Errorf("storage: replay lsn %d: %w", rec.lsn, err)
	}
	d := &decodedRec{lsn: rec.lsn, typ: rec.typ}
	switch rec.typ {
	case recRegister:
		body, err := decodeRegisterBody(rec.body)
		if err != nil {
			return fail(err)
		}
		d.reg, d.wfID = &body, body.ID
		if d.skip = rec.lsn <= snapLSN[body.ID]; d.skip {
			break
		}
		if d.wf, err = workflow.DecodeBytes(body.Workflow); err != nil {
			return fail(err)
		}
	case recMutate:
		body, err := decodeMutateBody(rec.body)
		if err != nil {
			return fail(err)
		}
		d.mut, d.wfID = &body, body.ID
		d.skip = rec.lsn <= snapLSN[body.ID]
	case recAttach:
		body, err := decodeAttachBody(rec.body)
		if err != nil {
			return fail(err)
		}
		d.att, d.wfID = &body, body.ID
		d.skip = rec.lsn <= snapLSN[body.ID]
	case recDetach:
		body, err := decodeDetachBody(rec.body)
		if err != nil {
			return fail(err)
		}
		d.det, d.wfID = &body, body.ID
		d.skip = rec.lsn <= snapLSN[body.ID]
	case recDelete:
		body, err := decodeDeleteBody(rec.body)
		if err != nil {
			return fail(err)
		}
		d.del, d.wfID = &body, body.ID
		d.skip = rec.lsn <= snapLSN[body.ID]
	case recRun:
		body, err := decodeRunBody(rec.body)
		if err != nil {
			return fail(err)
		}
		d.run, d.wfID = &body, body.ID
		d.skip = rec.lsn <= snapLSN[body.ID]
	default:
		return fail(fmt.Errorf("unknown record type %d", rec.typ))
	}
	return d, nil
}

// applyDecoded applies one decoded record to reg, honoring snapshot
// coverage and tracking applied deletions in deleted (a later register
// for the same ID clears the mark). Unknown-workflow lookups are
// tolerated (the workflow was evicted during restore, or a delete raced
// the crash); anything else a clean log cannot produce is an error. In
// parallel replay each partition owns a disjoint set of workflow IDs,
// so distinct appliers never touch the same registry entry, run shard,
// or deleted-map key.
func applyDecoded(ctx context.Context, reg *engine.Registry, rr RunRestorer, d *decodedRec, deleted map[string]bool, stats *RecoveryStats) error {
	fail := func(err error) error {
		return fmt.Errorf("storage: replay lsn %d: %w", d.lsn, err)
	}
	if d.skip || (d.typ == recRun && rr == nil) {
		stats.Skipped++
		return nil
	}
	switch d.typ {
	case recRegister:
		if _, err := reg.Restore(ctx, d.reg.ID, d.reg.Version, d.wf, nil); err != nil {
			return fail(err)
		}
		delete(deleted, d.reg.ID)
	case recMutate:
		lw, err := reg.Get(d.mut.ID)
		if err != nil {
			if engine.IsCode(err, engine.ErrUnknownWorkflow) {
				stats.Skipped++
				return nil
			}
			return fail(err)
		}
		res, err := lw.MutateCtx(ctx, d.mut.mutation())
		if err != nil {
			return fail(err)
		}
		if res.Version != d.mut.Version {
			return fail(fmt.Errorf("workflow %q replayed to version %d, log says %d",
				d.mut.ID, res.Version, d.mut.Version))
		}
	case recAttach:
		lw, err := reg.Get(d.att.ID)
		if err != nil {
			if engine.IsCode(err, engine.ErrUnknownWorkflow) {
				stats.Skipped++
				return nil
			}
			return fail(err)
		}
		_, _, err = lw.AttachViewCtx(ctx, d.att.VID, func(wf *workflow.Workflow) (*view.View, error) {
			return view.DecodeBytes(wf, d.att.View)
		})
		if err != nil {
			if engine.IsCode(err, engine.ErrUnknownWorkflow) {
				stats.Skipped++
				return nil
			}
			return fail(err)
		}
	case recDetach:
		lw, err := reg.Get(d.det.ID)
		if err != nil {
			if engine.IsCode(err, engine.ErrUnknownWorkflow) {
				stats.Skipped++
				return nil
			}
			return fail(err)
		}
		if err := lw.DetachViewCtx(ctx, d.det.VID); err != nil &&
			!engine.IsCode(err, engine.ErrUnknownView) && !engine.IsCode(err, engine.ErrUnknownWorkflow) {
			return fail(err)
		}
	case recDelete:
		if err := reg.DeleteCtx(ctx, d.del.ID); err != nil && !engine.IsCode(err, engine.ErrUnknownWorkflow) {
			return fail(err)
		}
		deleted[d.del.ID] = true
	case recRun:
		if err := rr.RestoreRun(d.run.ID, d.run.Run, d.run.Doc); err != nil {
			if engine.IsCode(err, engine.ErrUnknownWorkflow) {
				stats.Skipped++
				return nil
			}
			return fail(err)
		}
		stats.Runs++
	}
	stats.Replayed++
	return nil
}

// replaySequential is the reference replay: decode and apply each
// record inline, in log order. The parallel path is pinned against it
// by TestParallelRecoveryEquivalence.
func (s *Store) replaySequential(ctx context.Context, reg *engine.Registry, rr RunRestorer, paths []string,
	snapLSN map[string]uint64, deleted map[string]bool, stats *RecoveryStats) error {
	for i, path := range paths {
		_, _, err := scanSegment(s.fs, path, i == len(paths)-1, func(rec record) error {
			d, derr := decodeRecord(rec, snapLSN)
			if derr != nil {
				return derr
			}
			return applyDecoded(ctx, reg, rr, d, deleted, stats)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// errReplayStopped aborts a segment scan when another pipeline stage
// already failed; it never escapes replayParallel.
var errReplayStopped = errors.New("storage: replay stopped")

// partitionOf routes a workflow ID onto one of n appliers (FNV-1a).
func partitionOf(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// replayParallel is the pipelined replay: a reader scans segments in
// order and hands raw records to a decode pool; a dispatcher restores
// the global log order over the decoded stream and routes each record
// to a per-workflow partition applier. Records of one workflow always
// land on the same partition in log order (the dispatcher emits in
// global order into FIFO channels), so per-workflow apply order — the
// only order the state machines depend on — is exactly sequential
// replay's; distinct workflows apply concurrently. The caller has
// already ruled out LRU eviction (capacity upper bound), which is the
// one cross-workflow coupling replay has.
func (s *Store) replayParallel(ctx context.Context, reg *engine.Registry, rr RunRestorer, paths []string,
	snapLSN map[string]uint64, deleted map[string]bool, stats *RecoveryStats, workers int) error {
	type rawRec struct {
		seq uint64
		rec record
	}
	type decRec struct {
		seq uint64
		d   *decodedRec
		err error
	}
	var (
		rawc     = make(chan rawRec, 256)
		decc     = make(chan decRec, 256)
		stop     = make(chan struct{})
		stopOnce sync.Once
		errMu    sync.Mutex
		firstErr error
	)
	abort := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}

	// Stage 1 — reader: sequential segment I/O, in replay order.
	go func() {
		defer close(rawc)
		seq := uint64(0)
		for i, path := range paths {
			_, _, err := scanSegment(s.fs, path, i == len(paths)-1, func(rec record) error {
				seq++
				select {
				case rawc <- rawRec{seq: seq, rec: rec}:
					return nil
				case <-stop:
					return errReplayStopped
				}
			})
			if err != nil {
				if !errors.Is(err, errReplayStopped) {
					abort(err)
				}
				return
			}
		}
	}()

	// Stage 2 — decode pool: body parse + validation ahead of apply.
	var dwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for it := range rawc {
				d, err := decodeRecord(it.rec, snapLSN)
				select {
				case decc <- decRec{seq: it.seq, d: d, err: err}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		dwg.Wait()
		close(decc)
	}()

	// Stage 4 — partition appliers (started before the dispatcher so its
	// sends have somewhere to go). Each partition owns a disjoint ID set,
	// with its own deleted-map and stats merged at the end.
	partc := make([]chan *decodedRec, workers)
	partStats := make([]RecoveryStats, workers)
	partDel := make([]map[string]bool, workers)
	var pwg sync.WaitGroup
	for p := 0; p < workers; p++ {
		partc[p] = make(chan *decodedRec, 64)
		partDel[p] = make(map[string]bool)
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for d := range partc[p] {
				if err := applyDecoded(ctx, reg, rr, d, partDel[p], &partStats[p]); err != nil {
					abort(err)
					for range partc[p] { // drain so the dispatcher never blocks
					}
					return
				}
			}
		}(p)
	}

	// Stage 3 — dispatcher: restore global order, route by workflow.
	pending := make(map[uint64]decRec)
	next := uint64(1)
dispatch:
	for it := range decc {
		pending[it.seq] = it
		for {
			n, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if n.err != nil {
				abort(n.err)
				break dispatch
			}
			select {
			case partc[partitionOf(n.d.wfID, workers)] <- n.d:
			case <-stop:
				break dispatch
			}
		}
	}
	for _, c := range partc {
		close(c)
	}
	pwg.Wait()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return err
	}
	for p := 0; p < workers; p++ {
		stats.Replayed += partStats[p].Replayed
		stats.Skipped += partStats[p].Skipped
		stats.Runs += partStats[p].Runs
		for id := range partDel[p] {
			deleted[id] = true
		}
	}
	return nil
}
