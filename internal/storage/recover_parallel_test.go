package storage

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/runs"
)

// mixedIDs are the workflows of buildMixedDir's stream.
var mixedIDs = []string{"wf-a", "wf-b", "wf-c"}

// mixedWorkload is the workload of the k-th workflow of mixedIDs.
func mixedWorkload(t testing.TB, k int) *mutationWorkload {
	return newMutationWorkload(t, 48+8*k, 512, int64(100+k))
}

// buildMixedDir journals a multi-workflow stream — mutations, run
// ingestions, a mid-stream delete + re-register — into dir and
// hard-kills the store (no checkpoint), leaving snapshots, sealed
// segments and a live WAL suffix behind.
func buildMixedDir(t *testing.T, dir string) {
	t.Helper()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	rs := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rs)

	ids := mixedIDs
	wls := make(map[string]*mutationWorkload, len(ids))
	lws := make(map[string]*engine.LiveWorkflow, len(ids))
	for k, id := range ids {
		wl := mixedWorkload(t, k)
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
}

// recoverDirAt copies dir aside and recovers it with the given worker
// count into a fresh registry + run store.
func recoverDirAt(t *testing.T, dir string, workers int) (*engine.Registry, *runs.Store, *RecoveryStats) {
	t.Helper()
	sub := t.TempDir()
	copyDir(t, dir, sub)
	opts := testOpts()
	opts.recoveryWorkers = workers
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
	buildMixedDir(t, dir)

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
		for _, id := range mixedIDs {
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
// written before the binary WAL bodies existed. testdata/json-era is
// one: buildMixedDir's stream, journaled at commit 1d7831a, the last
// with the JSON writers, with JSON record bodies and JSON canonical run
// documents throughout. testdata/json-era.golden is recoveredState of
// what that commit recovered from it. The directory must recover under
// the current defaults — binary-capable decoders, parallel replay — to
// exactly that state, with every run document byte-identical and still
// JSON. New traffic journaled after the recovery then mixes binary
// records into the JSON-era log, and a second crash + recovery must
// replay across the era seam.
func TestRecoverJSONEraDataDir(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "json-era"), dir)
	golden, err := os.ReadFile(filepath.Join("testdata", "json-era.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New())
	rs := runs.New(reg)
	stats, err := st.RecoverWithRuns(reg, rs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs == 0 || stats.Workflows != len(mixedIDs) {
		t.Fatalf("JSON-era recovery stats: %+v", stats)
	}
	if got := recoveredState(t, reg, rs); got != string(golden) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("recovered state diverges from the golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("recovered state has %d lines, the golden %d", len(gl), len(wl))
	}
	for _, id := range mixedIDs {
		runIDs, docs := rs.SnapshotRuns(id)
		if len(runIDs) == 0 {
			t.Fatalf("workflow %q: no runs recovered", id)
		}
		for i, doc := range docs {
			if len(doc) == 0 || doc[0] != '{' {
				t.Fatalf("workflow %q run %q: JSON-era document was re-encoded: %q...", id, runIDs[i], doc[:1])
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
	wl := mixedWorkload(t, 0)
	for i := 0; i < 40; i++ {
		if _, err := lw.MutateCtx(context.Background(), wl.mutation(1000+i)); err != nil {
			t.Fatalf("post-recovery mutation %d: %v", i, err)
		}
		if i%4 == 0 {
			_, doc := wl.runDoc(1000 + i)
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
	for _, id := range mixedIDs {
		assertRunsEqual(t, id, rs2, rs)
	}
}

// recoveredState renders what a recovery restored as text: the registry
// fingerprint (IDs, versions, documents and reports), each workflow's
// info, and per run its info, canonical document and the lineage
// answers assertRunsEqual compares.
func recoveredState(t *testing.T, reg *engine.Registry, rs *runs.Store) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(mustRegistryFingerprint(t, reg))
	for _, id := range reg.IDs() {
		lw, err := reg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lw.Info()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(info)
		fmt.Fprintf(&b, "info=%s\n", raw)
		infos, err := rs.Runs(id)
		if err != nil {
			t.Fatal(err)
		}
		_, docs := rs.SnapshotRuns(id)
		for i, ri := range infos {
			raw, _ := json.Marshal(ri)
			fmt.Fprintf(&b, "run=%s\ndoc=%s\n", raw, docs[i])
			for _, q := range []runs.Query{
				{Run: ri.Run, Artifact: ri.Run + "/a3", Witness: true},
				{Run: ri.Run, Artifact: ri.Run + "/a3", Level: runs.LevelAudited, View: "interval"},
			} {
				ans, err := rs.LineageCtx(context.Background(), id, q)
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := json.Marshal(ans)
				fmt.Fprintf(&b, "lineage=%s\n", raw)
			}
		}
	}
	return b.String()
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
