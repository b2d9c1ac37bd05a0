package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"wolves/internal/obs"
	"wolves/internal/storage/vfs"
)

// FsyncMode selects the WAL's durability/latency trade-off.
type FsyncMode int

const (
	// FsyncBatch (the zero value, and the default) group-commits: each
	// append is written immediately, then waits for one fsync that is
	// shared with every other append in flight — concurrent commits pay
	// one disk flush between them, not one each.
	FsyncBatch FsyncMode = iota
	// FsyncNone writes each record to the OS (one write syscall) but
	// never fsyncs: a process crash loses nothing, a machine crash can
	// lose the records the OS had not flushed.
	FsyncNone
	// FsyncAlways fsyncs inside every append, serializing commits behind
	// the disk. Strongest guarantee, lowest throughput.
	FsyncAlways
)

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch strings.ToLower(s) {
	case "batch", "":
		return FsyncBatch, nil
	case "none", "off", "never":
		return FsyncNone, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync mode %q (want none|batch|always)", s)
}

// String renders the flag spelling.
func (m FsyncMode) String() string {
	switch m {
	case FsyncBatch:
		return "batch"
	case FsyncNone:
		return "none"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// sealedSegment is a rotated-out, read-only WAL segment.
type sealedSegment struct {
	seq    uint64
	path   string
	maxLSN uint64 // highest LSN in the segment; 0 when empty
}

// wal owns the segment files of a Store: one append handle on the
// current segment plus the list of sealed predecessors. Appends are
// serialized by mu; fsync batching runs on top (syncMu) so waiting for
// durability never blocks the next writer's append.
type wal struct {
	fs       vfs.FS
	dir      string
	segBytes int64
	mode     FsyncMode

	mu       sync.Mutex
	f        vfs.File
	seq      uint64
	size     int64
	maxLSN   uint64
	sealed   []sealedSegment
	buf      []byte // reusable encode buffer
	writeSeq uint64 // count of appended records (group-commit ticket)
	werr     error  // sticky write/rotate/fsync failure
	torn     bool   // a failed write left bytes we could not truncate away
	goodSize int64  // last clean record boundary, for reopen's truncate

	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncing   bool
	syncedSeq uint64 // highest writeSeq known durable
	syncErr   error  // sticky fsync failure
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// segSeq parses a segment file name; ok is false for foreign files.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// syncDir fsyncs a directory so renames/creates/removes inside it are
// durable. Failures degrade durability, not correctness; callers ignore
// them on best-effort paths.
func syncDir(fsys vfs.FS, dir string) error {
	return vfs.SyncDir(fsys, dir)
}

// createSegment creates and magic-stamps a fresh segment file. On any
// failure after the create, the partial file is removed (best-effort) so
// a retry can O_EXCL-create the same sequence number again.
func createSegment(fsys vfs.FS, dir string, seq uint64, mode FsyncMode) (vfs.File, error) {
	path := filepath.Join(dir, segName(seq))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, err
	}
	if mode != FsyncNone {
		if err := syncDir(fsys, dir); err != nil {
			f.Close()
			fsys.Remove(path)
			return nil, err
		}
	}
	return f, nil
}

// walWriteError reports a failed record write. clean means the partial
// bytes were truncated away and the segment still ends on a record
// boundary — the store may retry the append (it does for ENOSPC, after
// compacting); a non-clean failure leaves a torn tail that only reopen
// can repair.
type walWriteError struct {
	err   error
	clean bool
}

func (e *walWriteError) Error() string { return e.err.Error() }
func (e *walWriteError) Unwrap() error { return e.err }

// append encodes and writes rec to the current segment, rotating first
// when the segment is full, and returns the group-commit ticket to pass
// to waitDurable. The write syscall happens here; the fsync (if any)
// happens in waitDurable so callers can release their own locks first.
//
// A failed write syscall is rolled back by truncating the segment to the
// previous record boundary (segments are opened O_APPEND, so the next
// write lands exactly at the truncated end); if even the truncate fails
// the wal is poisoned until reopen. A failed fsync always poisons:
// the kernel may have dropped the dirty pages, so retrying fsync over
// them could succeed while the data is gone (fsyncgate) — the only safe
// continuation is a fresh segment, which reopen provides.
func (w *wal) append(rec record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return 0, w.werr
	}
	w.buf = appendRecord(w.buf[:0], rec)
	if w.size+int64(len(w.buf)) > w.segBytes && w.size > int64(len(segMagic)) {
		if err := w.rotateLocked(); err != nil {
			w.werr = err
			return 0, err
		}
	}
	prevSize := w.size
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	if err != nil {
		if terr := w.fs.Truncate(filepath.Join(w.dir, segName(w.seq)), prevSize); terr == nil {
			w.size = prevSize
			return 0, &walWriteError{err: err, clean: true}
		}
		w.torn = true
		w.goodSize = prevSize
		w.werr = err
		return 0, &walWriteError{err: err}
	}
	if w.mode == FsyncAlways {
		obs.MWALFsyncs.Inc()
		if err := w.f.Sync(); err != nil {
			// The write landed but its fsync failed: the record's pages may
			// already be dropped (fsyncgate), and the store never assigned
			// its LSN (the append errors out). Mark the tail torn at the
			// pre-record boundary so reopen truncates the suspect bytes
			// away — otherwise the sealed segment would advertise an LSN
			// the store reuses, blocking compaction forever and replaying
			// the unacknowledged record on top of the resync snapshot.
			w.torn = true
			w.goodSize = prevSize
			w.werr = err
			return 0, err
		}
	}
	w.maxLSN = rec.lsn
	w.writeSeq++
	obs.MWALAppends.Inc()
	obs.MWALAppendBytes.Add(uint64(n))
	return w.writeSeq, nil
}

// waitDurable blocks until the append identified by ticket is durable
// under the configured mode. For FsyncBatch the first waiter becomes the
// group leader: it fsyncs everything written so far on behalf of every
// other waiter, which merely sleeps on the condition variable.
func (w *wal) waitDurable(ticket uint64) error {
	switch w.mode {
	case FsyncNone, FsyncAlways:
		return nil // none: nothing to wait for; always: synced in append
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.syncedSeq < ticket {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()
		w.mu.Lock()
		f := w.f
		top := w.writeSeq
		w.mu.Unlock()
		obs.MWALFsyncs.Inc()
		err := f.Sync()
		w.syncMu.Lock()
		w.syncing = false
		if err != nil && !errors.Is(err, os.ErrClosed) {
			// ErrClosed means the segment rotated under us; rotation
			// fsyncs before sealing, so those records are already safe.
			w.syncErr = err
		} else if top > w.syncedSeq {
			// The leader's fsync covered every record up to top: that is
			// the group-commit batch riding this one flush.
			obs.MWALGroupCommit.Observe(float64(top - w.syncedSeq))
			w.syncedSeq = top
		}
		w.syncCond.Broadcast()
	}
	return nil
}

// rotateLocked seals the current segment (fsyncing it unless FsyncNone)
// and opens the next one. Callers hold w.mu.
func (w *wal) rotateLocked() error {
	if w.mode != FsyncNone {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, sealedSegment{
		seq:    w.seq,
		path:   filepath.Join(w.dir, segName(w.seq)),
		maxLSN: w.maxLSN,
	})
	// Everything written so far now lives in a sealed, fsynced segment:
	// let group-commit waiters go without another flush.
	if w.mode == FsyncBatch {
		w.syncMu.Lock()
		if w.writeSeq > w.syncedSeq {
			w.syncedSeq = w.writeSeq
		}
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
	}
	f, err := createSegment(w.fs, w.dir, w.seq+1, w.mode)
	if err != nil {
		return err
	}
	w.seq++
	w.f = f
	w.size = int64(len(segMagic))
	w.maxLSN = 0
	obs.MWALRotations.Inc()
	return nil
}

// reopen repairs a poisoned wal for Store.Probe: it restores a clean
// tail on the current segment if a failed write left a torn one, then
// seals that segment WITHOUT fsyncing it — after an fsync failure the
// kernel may have dropped the dirty pages, and re-fsyncing could report
// success over lost data (fsyncgate), so the suspect segment is never
// flushed again — and opens a fresh segment for future appends. Sticky
// write and sync errors are cleared only once the fresh segment exists.
//
// The records in the suspect segment are intact on-disk bytes of
// already-acknowledged-or-failed operations; the caller (Store.Resync)
// immediately re-snapshots every live workflow so the segment is fully
// covered and compacted away before the store accepts new appends.
//
// reopen is idempotent on failure: nothing is mutated until the fresh
// segment has been created.
func (w *wal) reopen() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("storage: wal closed")
	}
	if w.torn {
		if err := w.fs.Truncate(filepath.Join(w.dir, segName(w.seq)), w.goodSize); err != nil {
			return err
		}
		w.torn = false
		w.size = w.goodSize
	}
	f, err := createSegment(w.fs, w.dir, w.seq+1, w.mode)
	if errors.Is(err, os.ErrExist) {
		// A previous reopen created the next segment and then failed
		// before adopting it; clear the debris and try once more.
		if rerr := w.fs.Remove(filepath.Join(w.dir, segName(w.seq+1))); rerr != nil {
			return rerr
		}
		f, err = createSegment(w.fs, w.dir, w.seq+1, w.mode)
	}
	if err != nil {
		return err
	}
	w.f.Close() // suspect segment: close unsynced, never fsync again
	w.sealed = append(w.sealed, sealedSegment{
		seq:    w.seq,
		path:   filepath.Join(w.dir, segName(w.seq)),
		maxLSN: w.maxLSN,
	})
	w.seq++
	w.f = f
	w.size = int64(len(segMagic))
	w.maxLSN = 0
	obs.MWALRotations.Inc()
	w.werr = nil
	w.syncMu.Lock()
	w.syncErr = nil
	w.syncedSeq = w.writeSeq
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	return nil
}

// seal rotates unconditionally (checkpointing uses it so compaction can
// reclaim the current segment too). A segment holding no records is left
// in place.
func (w *wal) seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return w.werr
	}
	if w.size <= int64(len(segMagic)) {
		return nil
	}
	if err := w.rotateLocked(); err != nil {
		w.werr = err
		return err
	}
	return nil
}

// compact deletes the oldest sealed segments whose every record is
// covered by snapshots (maxLSN <= coveredLSN). It stops at the first
// segment that refuses removal and keeps it and every later one: a hole
// in the sequence would make the next Open refuse the directory, while
// a kept segment only delays compaction.
func (w *wal) compact(coveredLSN uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, seg := range w.sealed {
		if seg.maxLSN > coveredLSN {
			break
		}
		if err := w.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			break
		}
		n++
	}
	w.sealed = slices.Delete(w.sealed, 0, n)
	if n > 0 && w.mode != FsyncNone {
		_ = syncDir(w.fs, w.dir)
	}
}

// segmentPaths returns every segment path in replay order (sealed then
// current). Only safe before concurrent appends start or under external
// serialization; recovery runs single-threaded before traffic.
func (w *wal) segmentPaths() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	paths := make([]string, 0, len(w.sealed)+1)
	for _, seg := range w.sealed {
		paths = append(paths, seg.path)
	}
	paths = append(paths, filepath.Join(w.dir, segName(w.seq)))
	return paths
}

// close flushes and closes the current segment.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.mode != FsyncNone && w.werr == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// scanSegment validates one segment file, invoking fn per record, and
// returns the byte offset after the last valid record plus whether the
// tail was torn. isLast controls torn-tail tolerance: a short or
// corrupt record at the tail of the last segment is where the crash
// happened; anywhere else it is unrecoverable corruption.
func scanSegment(fsys vfs.FS, path string, isLast bool, fn func(rec record) error) (int64, bool, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if isLast && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			return 0, true, nil // crash before the magic finished
		}
		return 0, false, fmt.Errorf("storage: %s: unreadable header: %w", path, err)
	}
	if !bytes.Equal(magic[:], segMagic) {
		return 0, false, fmt.Errorf("storage: %s: not a WOLVES WAL segment", path)
	}
	off := int64(len(segMagic))
	for {
		rec, n, err := readRecord(br)
		if err == io.EOF {
			return off, false, nil
		}
		if errors.Is(err, errTorn) {
			if isLast {
				return off, true, nil
			}
			return off, false, fmt.Errorf("storage: %s: corrupt record at offset %d", path, off)
		}
		if err != nil {
			return off, false, fmt.Errorf("storage: %s: offset %d: %w", path, off, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return off, false, err
			}
		}
		off += n
	}
}

// listSegments returns the segment files of dir sorted by sequence.
func listSegments(fsys vfs.FS, dir string) ([]sealedSegment, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []sealedSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := segSeq(e.Name()); ok {
			segs = append(segs, sealedSegment{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].seq != segs[i-1].seq+1 {
			return nil, fmt.Errorf("storage: segment gap: %s jumps to %s",
				filepath.Base(segs[i-1].path), filepath.Base(segs[i].path))
		}
	}
	return segs, nil
}
