package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/storage/vfs"
	"wolves/internal/view"
)

// storeLog narrates cold-path store events (snapshot retries,
// poisoning, probe recovery); the hot append path never logs.
var storeLog = obs.NewLogger("storage")

// Defaults for Options zero values.
const (
	DefaultSegmentBytes  = 4 << 20
	DefaultSnapshotBytes = 1 << 20
)

// Options tunes a Store. The zero value is production-sane: 4 MiB
// segments, size-proportional snapshots, group-commit fsync.
type Options struct {
	// SegmentBytes rotates the WAL once the current segment exceeds it.
	SegmentBytes int64
	// SnapshotBytes is the snapshot trigger floor: a workflow is folded
	// into a fresh snapshot (and fully covered segments are compacted)
	// once the WAL bytes appended for it since its last snapshot exceed
	// max(SnapshotBytes, size of that snapshot). Scaling the trigger
	// with the snapshot's own size keeps the amortized snapshot cost
	// O(1) per appended byte no matter how large the workflow grows,
	// and bounds both disk usage and recovery replay at roughly 2x the
	// live state.
	SnapshotBytes int64
	// SnapshotEvery additionally triggers a snapshot after this many
	// committed mutation batches, regardless of bytes. 0 (the default)
	// disables the count trigger; tests use it to force snapshot and
	// compaction churn.
	SnapshotEvery int
	// Fsync selects the durability mode (FsyncBatch by default).
	Fsync FsyncMode
	// FS is the filesystem seam every store I/O goes through; nil means
	// the real filesystem. Tests install a vfs.FaultFS here to inject
	// disk faults at any I/O site, including acquisition of the
	// directory flock (LOCK) — a FaultFS delegates the actual flock to
	// its os-backed inner FS, so the lock still arbitrates between
	// processes.
	FS vfs.FS

	// recoveryWorkers pins the width of RecoverWithRuns for the tests
	// and benchmarks that compare widths; 0 means GOMAXPROCS.
	recoveryWorkers int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SnapshotBytes <= 0 {
		o.SnapshotBytes = DefaultSnapshotBytes
	}
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	return o
}

// wfState is the store's per-workflow bookkeeping.
type wfState struct {
	snapLSN        uint64 // LSN the latest durable snapshot covers
	sinceSnapRecs  int    // mutation records appended since that snapshot
	sinceSnapBytes int64  // WAL bytes appended for this workflow since it
	lastSnapBytes  int64  // encoded size of that snapshot
}

// wantSnapshot decides the snapshot trigger for ws under opts.
func (ws *wfState) wantSnapshot(opts Options) bool {
	if opts.SnapshotEvery > 0 && ws.sinceSnapRecs >= opts.SnapshotEvery {
		return true
	}
	floor := opts.SnapshotBytes
	if ws.lastSnapBytes > floor {
		floor = ws.lastSnapBytes
	}
	return ws.sinceSnapBytes >= floor
}

// errNeedsRecovery guards a dirty directory: journaling into it before
// RecoverWithRuns would interleave a live stream with an unread history.
var errNeedsRecovery = errors.New("storage: directory holds state; call RecoverWithRuns before journaling")

// Snapshot write retry policy: capped exponential backoff over a few
// attempts. Kept short — the caller holds the workflow's lock, so a
// snapshot stuck in retries stalls that workflow's traffic (and only
// that workflow's).
const (
	snapRetryMax  = 3
	snapRetryBase = 5 * time.Millisecond
	snapRetryCap  = 100 * time.Millisecond
)

// Store is the durable registry backend: an engine.Journal whose appends
// go to a checksummed, segment-rotated WAL and whose snapshots bound
// both recovery time and disk growth. Open one with Open, restore a
// registry with RecoverWithRuns, install it with Registry.SetJournal,
// checkpoint it on graceful shutdown with Checkpoint, and Close it
// last.
//
// Failure handling is sticky: the first append or snapshot error poisons
// the store and every later operation returns it, so a registry backed
// by a failing disk degrades loudly instead of silently forking from its
// durable history. The sticky error implements JournalUnavailable, which
// the engine maps to its degraded read-only mode; Probe and Resync
// (engine.RecoverableJournal) bring a poisoned store back once the disk
// recovers.
type Store struct {
	dir  string
	fs   vfs.FS
	opts Options

	lockf vfs.File // exclusive flock on dir/LOCK for the store's lifetime

	// runProv supplies the run documents to embed in workflow snapshots
	// (SetRunProvider); nil means snapshots carry no runs. Set during
	// setup, not synchronized with live traffic.
	runProv RunProvider

	mu        sync.Mutex
	failed    error
	closed    bool // Close was called; Probe must not resurrect the store
	needsRec  bool
	recovered bool
	lsn       uint64 // last assigned LSN
	enc       []byte // reusable body-encode scratch, used under mu
	wal       *wal
	wfs       map[string]*wfState
	snaps     []loadedSnapshot // loaded at Open, consumed by RecoverWithRuns
	corrupt   []string         // corrupt snapshot paths, removed by RecoverWithRuns
	tornBytes int64
}

// lockDir takes an exclusive advisory lock on dir/LOCK. Two daemons
// pointed at one -data-dir would otherwise interleave appends at
// arbitrary byte boundaries and corrupt the WAL beyond recovery; the
// second Open must fail loudly instead.
func lockDir(fsys vfs.FS, dir string) (vfs.File, error) {
	f, err := fsys.Lock(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("storage: locking %s: %w", dir, err)
	}
	return f, nil
}

// Open prepares dir as a store: creates it if missing, validates every
// WAL segment (truncating a torn tail in the last one — the crash
// point), loads snapshot documents, and positions the WAL for appends.
// If dir already holds state, RecoverWithRuns must run before journaling.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lockf, err := lockDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lockf.Close()
		}
	}()
	// Clear snapshot temp files orphaned by a crash or disk fault between
	// create and rename; loadSnapshots never reads them, but left in
	// place they hold torn bytes and waste space forever.
	if entries, err := fsys.ReadDir(dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
				fsys.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: fsys, opts: opts, lockf: lockf, wfs: make(map[string]*wfState)}

	w := &wal{fs: fsys, dir: dir, segBytes: opts.SegmentBytes, mode: opts.Fsync}
	w.syncCond = sync.NewCond(&w.syncMu)
	if len(segs) == 0 {
		f, err := createSegment(fsys, dir, 1, opts.Fsync)
		if err != nil {
			return nil, err
		}
		w.seq, w.f, w.size = 1, f, int64(len(segMagic))
	} else {
		records := false
		for i := range segs {
			isLast := i == len(segs)-1
			segMax := uint64(0)
			validSize, torn, err := scanSegment(fsys, segs[i].path, isLast, func(rec record) error {
				segMax = rec.lsn
				records = true
				return nil
			})
			if err != nil {
				return nil, err
			}
			segs[i].maxLSN = segMax
			if segMax > s.lsn {
				s.lsn = segMax
			}
			if !isLast {
				continue
			}
			if torn {
				st, err := fsys.Stat(segs[i].path)
				if err != nil {
					return nil, err
				}
				s.tornBytes = st.Size() - validSize
				if validSize < int64(len(segMagic)) {
					// The crash tore the magic itself: rewrite it.
					if err := vfs.WriteFile(fsys, segs[i].path, segMagic, 0o644); err != nil {
						return nil, err
					}
					validSize = int64(len(segMagic))
				} else if err := fsys.Truncate(segs[i].path, validSize); err != nil {
					return nil, err
				}
			}
			f, err := fsys.OpenFile(segs[i].path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return nil, err
			}
			w.seq, w.f, w.size, w.maxLSN = segs[i].seq, f, validSize, segMax
			w.sealed = segs[:i:i]
		}
		if records {
			s.needsRec = true
		}
	}
	s.wal = w

	snaps, corrupt, err := loadSnapshots(fsys, dir)
	if err != nil {
		return nil, err
	}
	s.snaps, s.corrupt = snaps, corrupt
	for _, ls := range snaps {
		if ls.doc.LSN > s.lsn {
			s.lsn = ls.doc.LSN
		}
		s.wfs[ls.doc.ID] = &wfState{snapLSN: ls.doc.LSN}
		s.needsRec = true
	}
	ok = true
	return s, nil
}

// RunProvider supplies, per workflow, the canonical documents of every
// currently ingested run, in ingestion order — the run store
// (internal/runs) implements it. Snapshots embed these documents so run
// records are snapshot-covered: compaction may drop the segments holding
// them without losing a single run.
type RunProvider interface {
	SnapshotRuns(workflowID string) (ids []string, docs [][]byte)
}

// SetRunProvider installs the run provider consulted by every snapshot.
// Call during setup (wolvesd does, right after Open), before the store
// journals traffic.
func (s *Store) SetRunProvider(p RunProvider) { s.runProv = p }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// usableLocked gates journal operations; callers hold s.mu.
func (s *Store) usableLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if s.needsRec && !s.recovered {
		return errNeedsRecovery
	}
	return nil
}

// storeFailure is the sticky error of a poisoned store. It marks itself
// JournalUnavailable so the engine (which cannot import this package)
// can classify it via errors.As and flip the registry into degraded
// read-only mode instead of surfacing an opaque internal error.
type storeFailure struct{ err error }

func (e *storeFailure) Error() string            { return "storage: store failed: " + e.err.Error() }
func (e *storeFailure) Unwrap() error            { return e.err }
func (e *storeFailure) JournalUnavailable() bool { return true }

// failLocked makes err sticky; callers hold s.mu.
func (s *Store) failLocked(err error) error {
	if s.failed == nil {
		s.failed = &storeFailure{err: err}
	}
	return s.failed
}

// fail is failLocked for callers not holding s.mu.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failLocked(err)
}

// waitDurable waits for ticket's group commit and poisons the store on
// a sync failure: after a failed fsync the record may sit in dirty
// pages the kernel already dropped (fsyncgate), so the store must stop
// appending — and report itself unavailable, so the registry degrades —
// until Probe rotates to a fresh segment.
func (s *Store) waitDurable(ticket uint64) error {
	if err := s.wal.waitDurable(ticket); err != nil {
		return s.fail(err)
	}
	return nil
}

// appendLocked assigns the next LSN and writes one record, returning the
// group-commit ticket and the record's on-disk size; callers hold s.mu
// (which is what keeps file order equal to LSN order across workflows).
// The body is pre-encoded by the caller (compat.go / binary.go) and is
// copied by the WAL before this returns, so callers may pass the s.enc
// scratch. The ticket feeds waitDurable after s.mu is released, so one
// slow fsync never blocks other workflows' appends.
func (s *Store) appendLocked(typ byte, body []byte) (uint64, int64, error) {
	ticket, err := s.wal.append(record{typ: typ, lsn: s.lsn + 1, body: body})
	if err != nil {
		// A full disk is the one write failure worth retrying in place:
		// when the failed write was cleanly rolled back (the segment still
		// ends on a record boundary), compact every snapshot-covered
		// segment to free space and try once more before surrendering.
		var we *walWriteError
		if errors.As(err, &we) && we.clean && errors.Is(we.err, syscall.ENOSPC) {
			s.wal.compact(s.coveredLocked())
			ticket, err = s.wal.append(record{typ: typ, lsn: s.lsn + 1, body: body})
		}
		if err != nil {
			return 0, 0, s.failLocked(err)
		}
	}
	s.lsn++
	return ticket, int64(recHeaderLen + recPrefixLen + len(body)), nil
}

// writeSnapshot encodes and writes st's snapshot covering coverLSN with
// NO store lock held — the multi-millisecond marshal + file I/O of one
// workflow must not stall every other workflow's journal appends. The
// caller holds st's workflow lock (every journal call does), which is
// what keeps st stable and serializes snapshots of the same workflow;
// distinct workflows write distinct files concurrently. Bookkeeping and
// compaction briefly retake s.mu at the end.
func (s *Store) writeSnapshot(st *engine.LiveState, coverLSN uint64, wfRaw []byte) error {
	var runIDs []string
	var runDocs [][]byte
	if s.runProv != nil {
		// The provider re-reads the run store's shard under its own lock;
		// runs are inserted there before their records are journaled, so
		// every run record at or below coverLSN is present (a run racing
		// in after coverLSN is harmlessly included — its record replays
		// idempotently on top).
		runIDs, runDocs = s.runProv.SnapshotRuns(st.ID)
	}
	doc, err := encodeSnapshot(st, coverLSN, wfRaw, runIDs, runDocs)
	if err != nil {
		return s.fail(err)
	}
	// Snapshot writes are transient-fault tolerant: the temp file is
	// removed on every failure (fresh inode per attempt, so no torn
	// bytes accumulate) and the write is retried under a capped
	// exponential backoff. ENOSPC additionally compacts covered
	// segments first — reclaimed WAL space is often exactly what the
	// snapshot needs. Only after the attempts are exhausted is the
	// store poisoned.
	var size int64
	backoff := snapRetryBase
	for attempt := 0; ; attempt++ {
		size, err = writeSnapshotFile(s.fs, s.dir, doc, s.opts.Fsync)
		if err == nil {
			break
		}
		if attempt == snapRetryMax-1 {
			storeLog.Error("snapshot write failed, store poisoned",
				"workflow", st.ID, "attempts", snapRetryMax, "err", err)
			return s.fail(err)
		}
		obs.MSnapshotRetries.Inc()
		storeLog.Warn("snapshot write failed, retrying",
			"workflow", st.ID, "attempt", attempt+1, "backoff", backoff, "err", err)
		if errors.Is(err, syscall.ENOSPC) {
			s.mu.Lock()
			covered := s.coveredLocked()
			s.mu.Unlock()
			s.wal.compact(covered)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > snapRetryCap {
			backoff = snapRetryCap
		}
	}
	s.mu.Lock()
	ws := s.wfs[st.ID]
	if ws == nil {
		ws = &wfState{}
		s.wfs[st.ID] = ws
	}
	ws.snapLSN = coverLSN
	ws.sinceSnapRecs = 0
	ws.sinceSnapBytes = 0
	ws.lastSnapBytes = size
	obs.MSnapshotPublishes.Inc()
	obs.MSnapshotBytes.Add(uint64(size))
	covered := s.coveredLocked()
	s.mu.Unlock()
	s.wal.compact(covered)
	return nil
}

// coveredLocked returns the LSN below which every live workflow is
// snapshot-covered; sealed segments at or below it are dead weight.
func (s *Store) coveredLocked() uint64 {
	covered := ^uint64(0)
	for _, ws := range s.wfs {
		if ws.snapLSN < covered {
			covered = ws.snapLSN
		}
	}
	return covered
}

// --- engine.Journal -----------------------------------------------------------

// Registered appends a registration record and immediately snapshots the
// newborn workflow, giving it a covered LSN so compaction is never
// blocked by a workflow that happens not to mutate.
func (s *Store) Registered(ctx context.Context, st *engine.LiveState) error {
	wfRaw, err := st.Workflow.MarshalJSON()
	if err != nil {
		return s.fail(err)
	}
	body := encodeRegisterBody(st.ID, st.Version, wfRaw)
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	ticket, _, err := s.appendLocked(recRegister, body)
	coverLSN := s.lsn
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writeSnapshot(st, coverLSN, wfRaw); err != nil {
		return err
	}
	return s.waitDurable(ticket)
}

// journal is the write path of every record but a registration or a
// deletion: it gates the store, encodes and appends the record, counts
// it toward workflowID's snapshot trigger (its bytes, and as records the
// mutation batches or runs it holds), snapshots st when the trigger
// fires, and waits for durability. With no st in hand (the run records)
// it reports the trigger instead, and the caller follows up with
// SnapshotWorkflow.
//
// The body is either encoded beforehand (the JSON kinds, outside the
// lock) or, when encode is non-nil, appended by encode under s.mu to the
// store's scratch, which the WAL copies before appendLocked returns.
func (s *Store) journal(workflowID string, st *engine.LiveState, typ byte, records int, body []byte, encode func(dst []byte) []byte) (bool, error) {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return false, err
	}
	if encode != nil {
		s.enc = encode(s.enc[:0])
		body = s.enc
	}
	ticket, n, err := s.appendLocked(typ, body)
	if err != nil {
		s.mu.Unlock()
		return false, err
	}
	ws := s.wfs[workflowID]
	if ws == nil {
		ws = &wfState{}
		s.wfs[workflowID] = ws
	}
	ws.sinceSnapRecs += records
	ws.sinceSnapBytes += n
	snap := ws.wantSnapshot(s.opts)
	coverLSN := s.lsn
	s.mu.Unlock()
	if snap && st != nil {
		if err := s.writeSnapshot(st, coverLSN, nil); err != nil {
			return false, err
		}
		snap = false
	}
	return snap, s.waitDurable(ticket)
}

// Committed appends the mutation batch; once the workflow's WAL growth
// passes the snapshot trigger (see Options.SnapshotBytes) it is folded
// into a fresh snapshot and fully covered segments are compacted.
func (s *Store) Committed(ctx context.Context, batch *engine.AppliedBatch, st *engine.LiveState) error {
	ctx, span := obs.StartSpan(ctx, "storage", "committed")
	defer span.End()
	span.SetAttr("workflow", st.ID)
	_, err := s.journal(st.ID, st, recMutate, 1, nil, func(dst []byte) []byte {
		return appendMutateBinary(dst, st.ID, st.Version, batch)
	})
	return err
}

// ViewAttached appends the attach record carrying the view document.
// View documents can be as large as the HTTP layer admits, so they feed
// the same snapshot trigger as mutations: a workflow whose views churn
// without mutating still gets folded into snapshots and its log still
// compacts, keeping the ~2x-of-live-state disk bound honest.
func (s *Store) ViewAttached(ctx context.Context, st *engine.LiveState, vid string, v *view.View) error {
	raw, err := v.MarshalJSON()
	if err != nil {
		return s.fail(err)
	}
	body := encodeAttachBody(st.ID, vid, st.Version, raw)
	_, err = s.journal(st.ID, st, recAttach, 0, body, nil)
	return err
}

// ViewDetached appends the detach record.
func (s *Store) ViewDetached(ctx context.Context, st *engine.LiveState, vid string) error {
	body, err := encodeDetachBody(st.ID, vid, st.Version)
	if err != nil {
		return s.fail(err)
	}
	_, err = s.journal(st.ID, st, recDetach, 0, body, nil)
	return err
}

// Deleted appends the delete record, waits for it to be durable, and
// only then removes the snapshot file — so a crash anywhere in between
// leaves either the workflow intact (delete never acknowledged) or a
// durable delete that replay honors; never a silently lost workflow.
func (s *Store) Deleted(ctx context.Context, id string) error {
	body, err := encodeDeleteBody(id)
	if err != nil {
		return s.fail(err)
	}
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	ticket, _, err := s.appendLocked(recDelete, body)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.wfs, id)
	s.mu.Unlock()
	if err := s.waitDurable(ticket); err != nil {
		return err
	}
	s.mu.Lock()
	// Remove the snapshot file only if the ID has not been re-registered
	// since the delete record was appended (a new registration recreates
	// the wfs entry and owns the snapshot file now). The registry already
	// serializes Deleted against same-ID registration; this guard keeps
	// the store safe even for journals driven differently.
	if _, reborn := s.wfs[id]; !reborn {
		if err := s.fs.Remove(snapPath(s.dir, id)); err != nil && !os.IsNotExist(err) {
			err = s.failLocked(err)
			s.mu.Unlock()
			return err
		}
		if s.opts.Fsync != FsyncNone {
			_ = syncDir(s.fs, s.dir)
		}
	}
	covered := s.coveredLocked()
	s.mu.Unlock()
	s.wal.compact(covered)
	return nil
}

// --- runs.Journal -------------------------------------------------------------

// RunIngested appends one ingested-run record, implementing the run
// store's journal. Run documents feed the same size-proportional
// snapshot trigger as mutations and view churn — a workflow that only
// ingests runs still gets folded into snapshots and its log still
// compacts — but the snapshot itself is the caller's follow-up (the run
// store calls SnapshotWorkflow under the workflow's read lock), because
// this method has no LiveState in hand.
func (s *Store) RunIngested(ctx context.Context, workflowID, runID string, doc []byte) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "storage", "run.journal")
	defer span.End()
	return s.journal(workflowID, nil, recRun, 1, nil, func(dst []byte) []byte {
		return appendRunBinary(dst, workflowID, runID, doc)
	})
}

// RunsIngested journals a batch of runs ingested together as one record,
// so recovery restores the whole batch or none of it, and the batch
// rides one fsync. A batch of one run is an ordinary run record. The
// snapshot-trigger bookkeeping counts each run, as if journaled alone.
func (s *Store) RunsIngested(ctx context.Context, workflowID string, runIDs []string, docs [][]byte) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "storage", "runs.journal")
	defer span.End()
	if len(runIDs) == 0 {
		return false, nil
	}
	typ := recRunBatch
	if len(runIDs) == 1 {
		typ = recRun
	}
	return s.journal(workflowID, nil, typ, len(runIDs), nil, func(dst []byte) []byte {
		if typ == recRun {
			return appendRunBinary(dst, workflowID, runIDs[0], docs[0])
		}
		return appendRunBatchBinary(dst, workflowID, runIDs, docs)
	})
}

// SnapshotWorkflow folds st into a fresh snapshot covering everything
// journaled so far, compacting segments the snapshot subsumes. The
// caller holds st's workflow lock (the run store calls through
// LiveWorkflow.State), which keeps st stable and serializes snapshots of
// the same workflow.
func (s *Store) SnapshotWorkflow(ctx context.Context, st *engine.LiveState) error {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	coverLSN := s.lsn
	s.mu.Unlock()
	return s.writeSnapshot(st, coverLSN, nil)
}

// --- lifecycle ----------------------------------------------------------------

// Checkpoint snapshots every live workflow at the current LSN, seals the
// WAL segment and compacts everything now covered: after a clean
// Checkpoint the next boot replays (almost) nothing. wolvesd runs one on
// graceful shutdown; operators can also run them periodically.
func (s *Store) Checkpoint(reg *engine.Registry) error {
	return s.checkpoint(reg, true)
}

func (s *Store) checkpoint(reg *engine.Registry, seal bool) error {
	for _, id := range reg.IDs() {
		// Peek, not Get: a maintenance sweep must not bump LRU recency,
		// or every checkpoint would reorder the eviction queue into
		// sorted-ID order underneath real traffic.
		lw, err := reg.Peek(id)
		if err != nil {
			continue // deleted while we iterated
		}
		err = lw.State(func(st *engine.LiveState) error {
			s.mu.Lock()
			if err := s.usableLocked(); err != nil {
				s.mu.Unlock()
				return err
			}
			// s.lsn covers every record this workflow has written: its
			// lock is held here, so it cannot be appending concurrently.
			coverLSN := s.lsn
			s.mu.Unlock()
			return s.writeSnapshot(st, coverLSN, nil)
		})
		if err != nil && !engine.IsCode(err, engine.ErrUnknownWorkflow) {
			return err
		}
	}
	if seal {
		if err := s.wal.seal(); err != nil {
			return s.fail(err)
		}
	}
	s.mu.Lock()
	covered := s.coveredLocked()
	s.mu.Unlock()
	s.wal.compact(covered)
	return nil
}

// Probe attempts to bring a poisoned store back: it repairs the WAL's
// tail (truncating any bytes a failed write tore), rotates to a fresh
// segment without ever re-fsyncing the suspect one (fsyncgate: after a
// failed fsync the kernel may have dropped the dirty pages, so a retried
// fsync can report success over lost data), and clears the sticky
// failure. It is idempotent and safe to call repeatedly; each call that
// fails leaves the store exactly as poisoned as before.
//
// Probe alone does not make the store consistent with the registry —
// operations that failed mid-journal left memory ahead of the log. The
// caller must follow a successful Probe with Resync before appending;
// engine.Registry's degraded-mode probe loop does exactly that and keeps
// mutations gated until Resync succeeds.
func (s *Store) Probe() error {
	s.mu.Lock()
	if s.closed {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if s.failed == nil {
		s.mu.Unlock()
		return nil
	}
	if s.needsRec && !s.recovered {
		s.mu.Unlock()
		return errNeedsRecovery
	}
	s.mu.Unlock()
	// Reopen outside s.mu: it creates and syncs files, and a slow disk
	// must not block concurrent read-path bookkeeping.
	if err := s.wal.reopen(); err != nil {
		return err
	}
	s.mu.Lock()
	s.failed = nil
	s.mu.Unlock()
	return nil
}

// Resync makes the store's durable state equal to the registry's live
// state after a successful Probe: every live workflow is folded into a
// fresh snapshot at the current LSN (capturing any mutations that were
// applied in memory while their journal append failed), bookkeeping for
// workflows the registry no longer holds is dropped along with their
// snapshot files, and every segment now covered — including the suspect
// pre-Probe segment — is compacted away. After Resync returns nil, a
// crash-recovery from the directory reproduces the registry as it stood
// at the Resync point.
//
// If the machine dies between Probe and the compaction here, the next
// boot may find a sealed segment whose tail was torn by the original
// fault; Open refuses such a directory loudly (corrupt record in a
// non-last segment) rather than ever replaying around missing records.
func (s *Store) Resync(reg *engine.Registry) error {
	if err := s.checkpoint(reg, false); err != nil {
		return err
	}
	live := make(map[string]bool)
	for _, id := range reg.IDs() {
		live[id] = true
	}
	s.mu.Lock()
	var stale []string
	for id := range s.wfs {
		if !live[id] {
			stale = append(stale, id)
			delete(s.wfs, id)
		}
	}
	covered := s.coveredLocked()
	s.mu.Unlock()
	// Snapshot files for workflows the registry dropped (a registration
	// or deletion whose journaling failed mid-way) would resurrect state
	// the client was told does not exist; remove them now that the
	// registry is authoritative again.
	for _, id := range stale {
		if err := s.fs.Remove(snapPath(s.dir, id)); err != nil && !os.IsNotExist(err) {
			return s.fail(err)
		}
	}
	if len(stale) > 0 && s.opts.Fsync != FsyncNone {
		_ = syncDir(s.fs, s.dir)
	}
	s.wal.compact(covered)
	return nil
}

// Close flushes and closes the WAL and releases the directory lock. The
// store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	if s.failed == nil {
		s.failed = errors.New("storage: store closed")
	}
	s.mu.Unlock()
	err := s.wal.close()
	if s.lockf != nil {
		s.lockf.Close() // releases the flock
		s.lockf = nil
	}
	return err
}

// snapPath joins dir and the snapshot file name for id.
func snapPath(dir, id string) string {
	return filepath.Join(dir, snapName(id))
}
