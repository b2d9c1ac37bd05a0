package storage

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/runs"
)

// buildMixedDir journals a multi-workflow stream — mutations, run
// ingestions, a mid-stream delete + re-register — into dir and
// hard-kills the store (no checkpoint), leaving snapshots, sealed
// segments and a live WAL suffix behind. Returns the workload
// generators and the workflow IDs.
func buildMixedDir(t *testing.T, dir string, opts Options) ([]string, map[string]*mutationWorkload) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	rsOpts := []runs.Option{runs.WithJournal(st)}
	if opts.LegacyJSONBodies {
		rsOpts = append(rsOpts, runs.WithLegacyJSONDocs())
	}
	rs := runs.New(reg, rsOpts...)
	st.SetRunProvider(rs)

	ids := []string{"wf-a", "wf-b", "wf-c"}
	wls := make(map[string]*mutationWorkload, len(ids))
	lws := make(map[string]*engine.LiveWorkflow, len(ids))
	for k, id := range ids {
		wl := newMutationWorkload(t, 48+8*k, 512, int64(100+k))
		wls[id] = wl
		lws[id] = wl.register(t, reg, id)
	}
	for i := 0; i < 240; i++ {
		id := ids[i%len(ids)]
		if _, err := lws[id].MutateCtx(context.Background(), wls[id].mutation(i)); err != nil {
			t.Fatalf("mutation %d (%s): %v", i, id, err)
		}
		if i%4 == 0 {
			_, doc := wls[id].runDoc(i)
			if _, err := rs.IngestCtx(context.Background(), id, doc); err != nil {
				t.Fatalf("ingest %d (%s): %v", i, id, err)
			}
		}
		if i == 120 {
			// A delete and a re-registration mid-stream: replay must apply
			// them in per-workflow order even when records of the other
			// workflows interleave on other partitions.
			if err := reg.DeleteCtx(context.Background(), "wf-b"); err != nil {
				t.Fatal(err)
			}
			lws["wf-b"] = wls["wf-b"].register(t, reg, "wf-b")
		}
	}
	st.Close() // hard kill: no checkpoint
	return ids, wls
}

// recoverDirAt copies dir aside and recovers it with the given worker
// count into a fresh registry + run store.
func recoverDirAt(t *testing.T, dir string, workers int) (*engine.Registry, *runs.Store, *RecoveryStats) {
	t.Helper()
	sub := t.TempDir()
	copyDir(t, dir, sub)
	opts := testOpts()
	opts.RecoveryWorkers = workers
	st, err := Open(sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := engine.NewRegistry(engine.New())
	rs := runs.New(reg)
	stats, err := st.RecoverWithRuns(reg, rs)
	if err != nil {
		t.Fatalf("recover with workers=%d: %v", workers, err)
	}
	return reg, rs, stats
}

// TestParallelRecoveryEquivalence pins the parallel recovery pipeline
// against the sequential reference: the same crashed directory is
// recovered at several worker counts, and every result must match
// workers=1 exactly — registry fingerprints, canonical documents, view
// reports, run lists, audited lineage answers, and the replay counters
// themselves.
func TestParallelRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	ids, _ := buildMixedDir(t, dir, testOpts())

	refReg, refRuns, refStats := recoverDirAt(t, dir, 1)
	if refStats.Workers != 1 {
		t.Fatalf("sequential reference ran with workers=%d", refStats.Workers)
	}
	for _, workers := range []int{2, 4, 8} {
		gotReg, gotRuns, gotStats := recoverDirAt(t, dir, workers)
		if gotStats.Workers != workers {
			t.Fatalf("requested workers=%d but replay ran with %d", workers, gotStats.Workers)
		}
		assertRegistriesEqual(t, gotReg, refReg)
		if got, want := mustRegistryFingerprint(t, gotReg), mustRegistryFingerprint(t, refReg); got != want {
			t.Fatalf("workers=%d: registry fingerprints diverge:\ngot:  %s\nwant: %s", workers, got, want)
		}
		for _, id := range ids {
			assertRunsEqual(t, id, gotRuns, refRuns)
		}
		if gotStats.Replayed != refStats.Replayed || gotStats.Skipped != refStats.Skipped ||
			gotStats.Runs != refStats.Runs || gotStats.Snapshots != refStats.Snapshots ||
			gotStats.Workflows != refStats.Workflows || gotStats.Views != refStats.Views ||
			gotStats.Segments != refStats.Segments {
			t.Fatalf("workers=%d: stats diverge:\ngot:  %+v\nwant: %+v", workers, gotStats, refStats)
		}
	}
}

// TestRecoverJSONEraDataDir pins backward compatibility with data dirs
// written before the binary WAL bodies existed: a directory journaled
// entirely with the legacy JSON encodings (record bodies and canonical
// run documents alike) must recover under the current defaults —
// binary-capable decoders, parallel replay — to the exact same state,
// with every recovered run document byte-identical to the pre-crash
// one. New traffic journaled after the recovery then mixes binary
// records into the JSON-era log, and a second crash + recovery must
// replay across the era seam.
func TestRecoverJSONEraDataDir(t *testing.T) {
	dir := t.TempDir()
	legacy := testOpts()
	legacy.LegacyJSONBodies = true
	ids, wls := buildMixedDir(t, dir, legacy)

	// The on-disk docs are the reference: capture them from a pure
	// legacy-mode recovery (knobs identical to the writer's).
	sub := t.TempDir()
	copyDir(t, dir, sub)
	lst, err := Open(sub, legacy)
	if err != nil {
		t.Fatal(err)
	}
	legacyReg := engine.NewRegistry(engine.New())
	legacyRuns := runs.New(legacyReg, runs.WithLegacyJSONDocs())
	if _, err := lst.RecoverWithRuns(legacyReg, legacyRuns); err != nil {
		t.Fatal(err)
	}
	lst.Close()

	// Recover the same bytes with the current defaults.
	opts := testOpts()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New())
	rs := runs.New(reg)
	stats, err := st.RecoverWithRuns(reg, rs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs == 0 || stats.Workflows != len(ids) {
		t.Fatalf("JSON-era recovery stats: %+v", stats)
	}
	assertRegistriesEqual(t, reg, legacyReg)
	for _, id := range ids {
		assertRunsEqual(t, id, rs, legacyRuns)
		gotIDs, gotDocs := rs.SnapshotRuns(id)
		wantIDs, wantDocs := legacyRuns.SnapshotRuns(id)
		if len(gotIDs) == 0 || len(gotIDs) != len(wantIDs) {
			t.Fatalf("workflow %q: recovered %d runs, want %d", id, len(gotIDs), len(wantIDs))
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] || !bytes.Equal(gotDocs[i], wantDocs[i]) {
				t.Fatalf("workflow %q run %q: recovered document not byte-identical", id, gotIDs[i])
			}
			if len(gotDocs[i]) == 0 || gotDocs[i][0] != '{' {
				t.Fatalf("workflow %q run %q: JSON-era document was re-encoded: %q...", id, gotIDs[i], gotDocs[i][:1])
			}
		}
	}

	// Mixed era: journal binary-bodied traffic on top of the JSON-era
	// log, crash again, recover across the seam.
	reg.SetJournal(st)
	rs.SetJournal(st)
	st.SetRunProvider(rs)
	lw, err := reg.Get("wf-a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := lw.MutateCtx(context.Background(), wls["wf-a"].mutation(1000+i)); err != nil {
			t.Fatalf("post-recovery mutation %d: %v", i, err)
		}
		if i%4 == 0 {
			_, doc := wls["wf-a"].runDoc(1000 + i)
			if _, err := rs.IngestCtx(context.Background(), "wf-a", doc); err != nil {
				t.Fatalf("post-recovery ingest %d: %v", i, err)
			}
		}
	}
	st.Close() // hard kill again

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	reg2 := engine.NewRegistry(engine.New())
	rs2 := runs.New(reg2)
	if _, err := st2.RecoverWithRuns(reg2, rs2); err != nil {
		t.Fatalf("mixed-era recovery: %v", err)
	}
	assertRegistriesEqual(t, reg2, reg)
	for _, id := range ids {
		assertRunsEqual(t, id, rs2, rs)
	}
}

// TestRunsIngestedBatch covers the batch journal path end to end: a
// batch append must land every record (contiguously), survive a hard
// kill, and replay identically to individually appended runs.
func TestRunsIngestedBatch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 48, 256, 77)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl.register(t, reg, "wf")
	rs := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rs)

	reference := engine.NewRegistry(engine.New())
	wl.register(t, reference, "wf")
	refRuns := runs.New(reference)

	var docs [][]byte
	for i := 0; i < 24; i++ {
		_, doc := wl.runDoc(i)
		docs = append(docs, doc)
		if _, err := refRuns.IngestCtx(context.Background(), "wf", doc); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := rs.IngestBatchCtx(context.Background(), "wf", docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(docs) {
		t.Fatalf("batch returned %d infos for %d docs", len(infos), len(docs))
	}
	for i, info := range infos {
		if info.Run != fmt.Sprintf("run-%d", i) {
			t.Fatalf("info %d out of order: %+v", i, info)
		}
	}
	assertRunsEqual(t, "wf", rs, refRuns)

	st.Close() // hard kill
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered := engine.NewRegistry(engine.New())
	recRuns := runs.New(recovered)
	stats, err := st2.RecoverWithRuns(recovered, recRuns)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != int64(len(docs)) {
		t.Fatalf("recovered %d runs, want %d (stats %+v)", stats.Runs, len(docs), stats)
	}
	assertRunsEqual(t, "wf", recRuns, refRuns)
}
