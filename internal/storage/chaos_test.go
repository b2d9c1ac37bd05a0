package storage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/runs"
	"wolves/internal/storage/vfs"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file is the robustness capstone: a chaos property test that runs
// a mutation+ingest workload while every filesystem operation can fail
// (write errors, short writes, ENOSPC, fsync failures, torn renames),
// and asserts the system's two survival invariants across many seeds:
//
//  1. No wrong answers, ever: a fault surfaces to the client only as a
//     typed degraded error; queries keep serving the in-memory state,
//     which advances only by successfully applied operations.
//  2. Recovery is a committed prefix: after abandoning the faulted
//     store mid-flight (no checkpoint, probe loop frozen) and
//     recovering the directory with a clean filesystem, the restored
//     registry + run store deep-equal the in-memory state as it stood
//     after some applied operation — at or past the last operation
//     that returned success (group commit makes success durable).
//
// Seeds are controlled by WOLVES_CHAOS_SEED_BASE / _SEED_COUNT so CI
// can fan a matrix without touching the code.

const chaosOps = 1000

// chaosSeeds reads the seed window from the environment (base 1,
// count 8 by default; -short trims to 2 seeds).
func chaosSeeds(t *testing.T) []int64 {
	base, count := int64(1), 8
	if v := os.Getenv("WOLVES_CHAOS_SEED_BASE"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("WOLVES_CHAOS_SEED_BASE=%q: %v", v, err)
		}
		base = n
	}
	if v := os.Getenv("WOLVES_CHAOS_SEED_COUNT"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("WOLVES_CHAOS_SEED_COUNT=%q: %v", v, err)
		}
		count = n
	}
	if testing.Short() && count > 2 {
		count = 2
	}
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// chaosDigest hashes the full observable state: every workflow's
// version, fingerprint, canonical documents and maintained reports,
// plus the run store's metadata and canonical run documents. Two states
// with equal digests answer every query identically.
func chaosDigest(t *testing.T, reg *engine.Registry, rs *runs.Store) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(mustRegistryFingerprint(t, reg)))
	for _, id := range reg.IDs() {
		ids, docs := rs.SnapshotRuns(id)
		for i, rid := range ids {
			fmt.Fprintf(h, "run:%s/%s=", id, rid)
			h.Write(docs[i])
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestChaosWorkloadRecoversToCommittedPrefix(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			chaosSeedRun(t, seed)
		})
	}
}

func chaosSeedRun(t *testing.T, seed int64) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.OS())
	// FsyncBatch: a successful operation implies its record hit the disk
	// (group commit waits for the fsync covering its LSN), which is what
	// lets lastSuccess below lower-bound the committed prefix. Small
	// segments + an aggressive snapshot cadence maximize rotation,
	// snapshot and compaction traffic — i.e. faultable I/O sites.
	st, err := Open(dir, Options{
		FS: ffs, Fsync: FsyncBatch, SegmentBytes: 8 << 10, SnapshotEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 96, 2048, seed)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st),
		engine.WithProbeBackoff(time.Millisecond, 10*time.Millisecond))
	rRuns := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rRuns)
	lw := wl.register(t, reg, "wf")

	// The registration is the fault-free baseline: digests[0]. Everything
	// after it runs under seeded chaos at every I/O site.
	digests := []string{chaosDigest(t, reg, rRuns)}
	lastSuccess := 0
	ffs.Chaos(seed, 0.02)

	runCount := 0
	for i := 0; i < chaosOps; i++ {
		preVer := lw.Version()
		info, err := lw.Info()
		if err != nil {
			t.Fatal(err)
		}
		preViews := len(info.Views)

		var opErr error
		applied := false
		// A mutation whose whole edge batch is already present applies as
		// a no-op: success with no version bump. Every other op kind must
		// change observable state when it reports success.
		maybeNoop := false
		switch {
		case i%7 == 3:
			_, doc := wl.runDoc(i)
			_, opErr = rRuns.IngestCtx(context.Background(), "wf", doc)
			ids, _ := rRuns.SnapshotRuns("wf")
			if len(ids) != runCount {
				runCount = len(ids)
				applied = true
			}
		case i%23 == 11:
			hasRandom := false
			for _, vid := range info.Views {
				if vid == "random" {
					hasRandom = true
				}
			}
			if hasRandom {
				opErr = lw.DetachViewCtx(context.Background(), "random")
			} else {
				_, _, opErr = lw.AttachViewCtx(context.Background(), "random", func(wf *workflow.Workflow) (*view.View, error) {
					return gen.RandomView(wf, 2+wf.N()/5, 7, "random"), nil
				})
			}
			post, err := lw.Info()
			if err != nil {
				t.Fatal(err)
			}
			applied = len(post.Views) != preViews
		default:
			_, opErr = lw.MutateCtx(context.Background(), wl.mutation(i))
			applied = lw.Version() != preVer
			maybeNoop = true
		}

		// Invariant 1: a fault is only ever visible as a typed degraded
		// error — never a wrong answer, never an opaque internal error.
		if opErr != nil && !engine.IsCode(opErr, engine.ErrDegraded) {
			t.Fatalf("op %d: fault leaked as non-degraded error: %v", i, opErr)
		}
		if opErr == nil && !applied && !maybeNoop {
			t.Fatalf("op %d: reported success without applying", i)
		}
		if applied {
			digests = append(digests, chaosDigest(t, reg, rRuns))
			if opErr == nil {
				lastSuccess = len(digests) - 1
			}
		}
		if reg.Degraded() {
			// Give the probe loop air; ops meanwhile bounce off the gate,
			// which is part of what this test exercises.
			time.Sleep(300 * time.Microsecond)
		}
	}
	if ffs.Injected() == 0 {
		t.Fatalf("seed %d injected no faults; the workload proved nothing", seed)
	}

	// Hard kill mid-flight: freeze the fault filesystem entirely (so a
	// concurrently running probe/resync can no longer touch the
	// directory), abandon the store without a checkpoint, and recover the
	// directory with a clean filesystem — the crashed-machine view.
	for op := vfs.OpOpen; op <= vfs.OpMkdir; op++ {
		ffs.Deny(op, vfs.Fault{})
	}
	_ = st.Close() // releases the directory lock; close errors are the fault fs talking

	st2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer st2.Close()
	reg2 := engine.NewRegistry(engine.New())
	rRuns2 := runs.New(reg2)
	if _, err := st2.RecoverWithRuns(reg2, rRuns2); err != nil {
		t.Fatalf("recover after chaos: %v", err)
	}

	// Invariant 2: the recovered state is a committed prefix — it equals
	// the applied-state digest at some index, and that index is at or
	// past the last operation whose success was acknowledged.
	got := chaosDigest(t, reg2, rRuns2)
	idx := -1
	for k, d := range digests {
		if d == got {
			idx = k
		}
	}
	if idx < 0 {
		t.Fatalf("seed %d: recovered state matches no applied prefix (%d digests, lastSuccess=%d, %d faults injected)",
			seed, len(digests), lastSuccess, ffs.Injected())
	}
	if idx < lastSuccess {
		t.Fatalf("seed %d: recovery lost acknowledged operations: prefix %d < last success %d",
			seed, idx, lastSuccess)
	}
}
