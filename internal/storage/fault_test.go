package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"wolves/internal/engine"
	"wolves/internal/runs"
	"wolves/internal/storage/vfs"
)

// Targeted fault tests: one injected failure per I/O site, asserting the
// exact hardening behavior (retry, compact-and-retry, poison-and-probe)
// the chaos test exercises statistically.

// TestRecoverCleansDebris boots from a directory holding the two classic
// crash leftovers: a zero-length WAL segment (rotation died between
// create and magic) and an orphaned snapshot temp file (snapshot died
// between write and rename). Recovery must clean both up and proceed.
func TestRecoverCleansDebris(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 96, 1024, 77)
	durable := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	reference := engine.NewRegistry(engine.New())
	dlw := wl.register(t, durable, "phylo")
	rlw := wl.register(t, reference, "phylo")
	for i := 0; i < 40; i++ {
		m := wl.mutation(i)
		if _, err := dlw.MutateCtx(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		if _, err := rlw.MutateCtx(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Plant the debris: the next segment in sequence, zero bytes long,
	// and a torn snapshot temp file.
	maxSeq := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); err == nil && seq > maxSeq {
			maxSeq = seq
		}
	}
	if maxSeq == 0 {
		t.Fatal("no WAL segments found")
	}
	empty := filepath.Join(dir, fmt.Sprintf("wal-%08d.log", maxSeq+1))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "snap-deadbeef.json.tmp")
	if err := os.WriteFile(orphan, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("open over debris: %v", err)
	}
	defer st2.Close()
	recovered := engine.NewRegistry(engine.New())
	if _, err := st2.RecoverWithRuns(recovered, nil); err != nil {
		t.Fatalf("recover over debris: %v", err)
	}
	assertRegistriesEqual(t, recovered, reference)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("snapshot temp orphan survived recovery: %v", err)
	}

	// The cleaned store must accept journaled traffic again.
	recovered.SetJournal(st2)
	lw, err := recovered.Get("phylo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(40)); err != nil {
		t.Fatalf("mutate after debris recovery: %v", err)
	}
}

// TestSnapshotRenameRetries injects a single transient rename failure on
// the snapshot publish and expects the capped-backoff retry to absorb
// it: the mutation succeeds and the store stays healthy.
// TestDeniedLockOpen injects a fault on LOCK acquisition: Open must
// fail loudly with the injected error, and succeed once the fault is
// lifted — proving the directory flock sits behind the vfs seam like
// every other I/O site.
func TestDeniedLockOpen(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	ffs.Deny(vfs.OpLock, vfs.Fault{Err: syscall.EACCES})

	if _, err := Open(dir, Options{FS: ffs, Fsync: FsyncNone}); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Open under denied lock = %v, want vfs.ErrInjected", err)
	}
	if !errors.Is(func() error { _, err := Open(dir, Options{FS: ffs, Fsync: FsyncNone}); return err }(), syscall.EACCES) {
		t.Fatal("injected lock fault must preserve the scheduled errno")
	}

	ffs.Allow(vfs.OpLock)
	st, err := Open(dir, Options{FS: ffs, Fsync: FsyncNone})
	if err != nil {
		t.Fatalf("Open after Allow: %v", err)
	}
	defer st.Close()
	if got := ffs.Count(vfs.OpLock); got != 3 {
		t.Fatalf("lock attempts = %d, want 3", got)
	}
}

func TestSnapshotRenameRetries(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS())
	st, err := Open(t.TempDir(), Options{FS: ffs, Fsync: FsyncNone, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wl := newMutationWorkload(t, 96, 1024, 78)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	lw := wl.register(t, reg, "phylo")

	ffs.FailNth(vfs.OpRename, 1, vfs.Fault{})
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(0)); err != nil {
		t.Fatalf("mutation must survive one transient rename fault: %v", err)
	}
	if ffs.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", ffs.Injected())
	}
	if reg.Degraded() {
		t.Fatal("a retried transient fault degraded the registry")
	}
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(1)); err != nil {
		t.Fatalf("follow-up mutation: %v", err)
	}
}

// TestAppendENOSPCCompactsAndRetries injects one ENOSPC on a WAL append.
// The write is rolled back cleanly (the segment still ends on a record
// boundary), covered segments are compacted to free space, and the
// append retries in place — the client never sees the hiccup.
func TestAppendENOSPCCompactsAndRetries(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS())
	st, err := Open(t.TempDir(), Options{FS: ffs, Fsync: FsyncNone, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wl := newMutationWorkload(t, 96, 1024, 79)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	lw := wl.register(t, reg, "phylo")

	ffs.FailNth(vfs.OpWrite, 1, vfs.Fault{Err: syscall.ENOSPC})
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(0)); err != nil {
		t.Fatalf("mutation must survive a clean ENOSPC (compact + retry): %v", err)
	}
	if ffs.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", ffs.Injected())
	}
	if reg.Degraded() {
		t.Fatal("a compact-and-retried ENOSPC degraded the registry")
	}
}

// TestFsyncFailurePoisonsThenProbeRecovers is the fsyncgate contract at
// the store level: a failed fsync poisons the store (never re-fsync over
// possibly-dropped dirty pages), the registry degrades, and the probe
// loop reopens onto a fresh segment, resyncs and flips back healthy.
func TestFsyncFailurePoisonsThenProbeRecovers(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS())
	dir := t.TempDir()
	st, err := Open(dir, Options{FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wl := newMutationWorkload(t, 96, 1024, 80)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st),
		engine.WithProbeBackoff(2*time.Millisecond, 20*time.Millisecond))
	lw := wl.register(t, reg, "phylo")
	preVer := lw.Version()

	ffs.Deny(vfs.OpSync, vfs.Fault{})
	_, err = lw.MutateCtx(context.Background(), wl.mutation(0))
	if !engine.IsCode(err, engine.ErrDegraded) {
		t.Fatalf("mutation over failed fsync: want degraded, got %v", err)
	}
	if lw.Version() != preVer+1 {
		t.Fatal("mutation must stay applied in memory")
	}
	// The poison is sticky: the store reports unavailable without ever
	// re-fsyncing the suspect segment.
	var ju interface{ JournalUnavailable() bool }
	if _, jerr := st.RunIngested(context.Background(), "phylo", "r", []byte("{}")); !errors.As(jerr, &ju) {
		t.Fatalf("poisoned store must report JournalUnavailable, got %v", jerr)
	}

	ffs.Allow(vfs.OpSync)
	deadline := time.Now().Add(5 * time.Second)
	for reg.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("registry never recovered: %+v", reg.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Recovery rotated to a fresh segment (fsyncgate: the suspect one is
	// sealed, then compacted away by the resync snapshot).
	segs, err := listSegments(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if strings.HasSuffix(seg.path, "wal-00000001.log") {
			t.Fatal("suspect segment was not rotated away")
		}
	}
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(1)); err != nil {
		t.Fatalf("mutate after probe recovery: %v", err)
	}

	// The durable history equals memory: a cold recovery reproduces the
	// registry including the mutation whose fsync failed.
	st.Close()
	st2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered := engine.NewRegistry(engine.New())
	if _, err := st2.RecoverWithRuns(recovered, nil); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, recovered, reg)
}

// TestCompactionStopsAtRefusedRemove fails the second segment removal
// of the compaction that follows a workflow's first snapshot, then
// closes the store before any later compaction can retry it. Compaction
// must keep that segment and every later one, so the directory holds a
// gapless segment sequence: the store reopens and recovers the registry.
func TestCompactionStopsAtRefusedRemove(t *testing.T) {
	ffs := vfs.NewFault(vfs.OS())
	dir := t.TempDir()
	st, err := Open(dir, Options{FS: ffs, Fsync: FsyncNone, SegmentBytes: 1 << 10, SnapshotEvery: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wl := newMutationWorkload(t, 96, 1024, 81)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	lw := wl.register(t, reg, "phylo")
	for i := 0; i < 40; i++ {
		if _, err := lw.MutateCtx(context.Background(), wl.mutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := listSegments(vfs.OS(), dir); err != nil || len(segs) < 4 {
		t.Fatalf("want at least 4 segments before the snapshot, got %d (%v)", len(segs), err)
	}

	ffs.FailNth(vfs.OpRemove, 2, vfs.Fault{})
	for i := 40; ffs.Injected() == 0; i++ {
		if i == 60 {
			t.Fatal("no snapshot compaction removed a second segment")
		}
		if _, err := lw.MutateCtx(context.Background(), wl.mutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatalf("reopen after a refused removal: %v", err)
	}
	defer st2.Close()
	recovered := engine.NewRegistry(engine.New())
	if _, err := st2.RecoverWithRuns(recovered, nil); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, recovered, reg)
}

// TestRunBatchRecoversWhole fails the n-th WAL write from the start of
// a three-run batch ingest, for each n, then hard-kills the store.
// Recovery restores the whole batch or none of it, never a prefix, and
// all of it when the ingest succeeded.
func TestRunBatchRecoversWhole(t *testing.T) {
	for nth := uint64(1); nth <= 3; nth++ {
		ffs := vfs.NewFault(vfs.OS())
		dir := t.TempDir()
		st, err := Open(dir, Options{FS: ffs, Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		wl := newMutationWorkload(t, 48, 256, 82)
		reg := engine.NewRegistry(engine.New(), engine.WithJournal(st), engine.WithProbeBackoff(time.Hour, time.Hour))
		wl.register(t, reg, "wf")
		rs := runs.New(reg, runs.WithJournal(st))
		var docs [][]byte
		for i := 0; i < 3; i++ {
			_, doc := wl.runDoc(i)
			docs = append(docs, doc)
		}
		ffs.FailNth(vfs.OpWrite, nth, vfs.Fault{})
		_, ingestErr := rs.IngestBatchCtx(context.Background(), "wf", docs)
		st.Close()

		st2, err := Open(dir, Options{Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		recovered := engine.NewRegistry(engine.New())
		stats, err := st2.RecoverWithRuns(recovered, runs.New(recovered))
		st2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Runs != 0 && stats.Runs != 3 || ingestErr == nil && stats.Runs != 3 {
			t.Fatalf("write %d failed (ingest: %v): recovered %d of the batch's 3 runs", nth, ingestErr, stats.Runs)
		}
	}
}
