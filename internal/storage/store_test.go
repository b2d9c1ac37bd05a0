package storage

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/runs"
	"wolves/internal/storage/vfs"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// testOpts keeps tests fast (no fsync) while still exercising rotation
// and snapshotting aggressively.
func testOpts() Options {
	return Options{Fsync: FsyncNone, SegmentBytes: 16 << 10, SnapshotEvery: 64}
}

// mutationWorkload is a deterministic stream of valid mutations over a
// layered workflow: every candidate edge respects one fixed topological
// order, so any prefix applies cleanly.
type mutationWorkload struct {
	wf         *workflow.Workflow
	candidates [][2]string
}

func newMutationWorkload(t testing.TB, n, pool int, seed int64) *mutationWorkload {
	t.Helper()
	wf := gen.Layered(gen.LayeredConfig{
		Name: fmt.Sprintf("wl-%d", seed), Tasks: n, Layers: 8,
		EdgeProb: 0.2, SkipProb: 0.05, Seed: seed,
	})
	order, err := wf.Graph().TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed * 31))
	seen := make(map[[2]int]bool, pool)
	cands := make([][2]string, 0, pool)
	for len(cands) < pool {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		u, w := order[i], order[j]
		if seen[[2]int{u, w}] || wf.Graph().HasEdge(u, w) {
			continue
		}
		seen[[2]int{u, w}] = true
		cands = append(cands, [2]string{wf.Task(u).ID, wf.Task(w).ID})
	}
	return &mutationWorkload{wf: wf, candidates: cands}
}

// registerWorkload registers a fresh clone of the workload's workflow
// (each registry takes ownership) with two attached views.
func (w *mutationWorkload) register(t testing.TB, reg *engine.Registry, id string) *engine.LiveWorkflow {
	t.Helper()
	lw, err := reg.RegisterCtx(context.Background(), id, w.wf.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "interval", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 2+wf.N()/8, "interval"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "random", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.RandomView(wf, 2+wf.N()/5, 7, "random"), nil
	}); err != nil {
		t.Fatal(err)
	}
	return lw
}

// mutation returns the i-th mutation of the stream: usually a small edge
// batch, periodically a task addition wired into the DAG.
func (w *mutationWorkload) mutation(i int) engine.Mutation {
	var m engine.Mutation
	if i%17 == 5 {
		id := fmt.Sprintf("t-extra-%d", i)
		m.Tasks = []workflow.Task{{ID: id, Kind: "extra"}}
		m.Edges = append(m.Edges, [2]string{w.candidates[i%len(w.candidates)][0], id})
		return m
	}
	for k := 0; k < 1+i%3; k++ {
		m.Edges = append(m.Edges, w.candidates[(i*3+k)%len(w.candidates)])
	}
	return m
}

// assertRegistriesEqual deep-compares two registries: IDs, per-workflow
// metadata (version, fingerprint, counts, view order), the canonical
// workflow and view documents, and every maintained report.
func assertRegistriesEqual(t *testing.T, got, want *engine.Registry) {
	t.Helper()
	gotIDs, wantIDs := got.IDs(), want.IDs()
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("workflow IDs diverge: got %v want %v", gotIDs, wantIDs)
	}
	for _, id := range wantIDs {
		glw, err := got.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		wlw, err := want.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		ginfo, err := glw.Info()
		if err != nil {
			t.Fatal(err)
		}
		winfo, err := wlw.Info()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ginfo, winfo) {
			t.Fatalf("workflow %q info diverges:\ngot:  %+v\nwant: %+v", id, ginfo, winfo)
		}
		gdocs, wdocs := stateDocs(t, glw), stateDocs(t, wlw)
		if !reflect.DeepEqual(gdocs, wdocs) {
			t.Fatalf("workflow %q documents diverge:\ngot:  %v\nwant: %v", id, gdocs, wdocs)
		}
		for _, vid := range winfo.Views {
			grep, gver, err := glw.Report(vid)
			if err != nil {
				t.Fatal(err)
			}
			wrep, wver, err := wlw.Report(vid)
			if err != nil {
				t.Fatal(err)
			}
			if gver != wver || !reflect.DeepEqual(grep, wrep) {
				t.Fatalf("workflow %q view %q report diverges (version %d vs %d)", id, vid, gver, wver)
			}
		}
	}
}

// stateDocs renders a live workflow's canonical documents.
func stateDocs(t *testing.T, lw *engine.LiveWorkflow) map[string]string {
	t.Helper()
	docs := make(map[string]string)
	err := lw.State(func(st *engine.LiveState) error {
		raw, err := json.Marshal(st.Workflow)
		if err != nil {
			return err
		}
		docs["workflow"] = string(raw)
		for _, av := range st.Views {
			raw, err := json.Marshal(av.View)
			if err != nil {
				return err
			}
			docs["view:"+av.ID] = string(raw)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestRecoverAfterHardKill is the acceptance scenario: a 1k-mutation
// stream journaled with snapshots and rotation, then a hard kill (the
// store is simply abandoned — no checkpoint, no close), then recovery
// into a fresh registry, which must deep-equal a never-killed reference
// registry that applied the identical stream.
func TestRecoverAfterHardKill(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 96, 2048, 42)

	durable := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	reference := engine.NewRegistry(engine.New())
	dlw := wl.register(t, durable, "phylo")
	rlw := wl.register(t, reference, "phylo")

	for i := 0; i < 1000; i++ {
		m := wl.mutation(i)
		if _, err := dlw.MutateCtx(context.Background(), m); err != nil {
			t.Fatalf("mutation %d (durable): %v", i, err)
		}
		if _, err := rlw.MutateCtx(context.Background(), m); err != nil {
			t.Fatalf("mutation %d (reference): %v", i, err)
		}
	}
	// Detach one view late so the detach record replays too.
	if err := dlw.DetachViewCtx(context.Background(), "random"); err != nil {
		t.Fatal(err)
	}
	if err := rlw.DetachViewCtx(context.Background(), "random"); err != nil {
		t.Fatal(err)
	}

	// Hard kill: no Checkpoint — Close here only releases the file
	// descriptors and the directory flock, exactly what process death
	// does; the on-disk state is the crash state (no final snapshot, no
	// tail truncation). Reopen the directory cold.
	st.Close()
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	stats, err := st2.RecoverWithRuns(recovered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workflows != 1 {
		t.Fatalf("recovery stats %+v, want 1 workflow", stats)
	}
	assertRegistriesEqual(t, recovered, reference)

	// The recovered store must accept new journaled traffic.
	recoveredLW, err := recovered.Get("phylo")
	if err != nil {
		t.Fatal(err)
	}
	recovered.SetJournal(st2)
	if _, err := recoveredLW.MutateCtx(context.Background(), wl.mutation(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := rlw.MutateCtx(context.Background(), wl.mutation(1000)); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, recovered, reference)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointThenRecover: after a graceful checkpoint the WAL is
// compacted down and recovery replays (almost) nothing, yet restores the
// same state.
func TestCheckpointThenRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 64, 1024, 7)
	durable := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	reference := engine.NewRegistry(engine.New())
	dlw := wl.register(t, durable, "wf")
	rlw := wl.register(t, reference, "wf")
	for i := 0; i < 300; i++ {
		if _, err := dlw.MutateCtx(context.Background(), wl.mutation(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := rlw.MutateCtx(context.Background(), wl.mutation(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(durable); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	stats, err := st2.RecoverWithRuns(recovered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 0 {
		t.Fatalf("post-checkpoint recovery replayed %d records, want 0 (stats %+v)", stats.Replayed, stats)
	}
	assertRegistriesEqual(t, recovered, reference)

	// Checkpoint + snapshot-triggered compaction must actually bound the
	// log: all that survives is the snapshot and the tail segment.
	segs, err := listSegments(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("checkpoint left %d segments behind", len(segs))
	}
	st2.Close()
}

// TestDeleteAndReregisterSurviveRestart: deletes are durable, and a
// deleted-then-reregistered ID recovers to the second registration.
func TestDeleteAndReregisterSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl := newMutationWorkload(t, 32, 256, 3)
	lw := wl.register(t, reg, "a")
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(0)); err != nil {
		t.Fatal(err)
	}
	if err := reg.DeleteCtx(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	// Re-register under the same ID with a different workflow shape.
	wf2, err := workflow.NewBuilder("a2").AddTask("x").AddTask("y").Chain("x", "y").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterCtx(context.Background(), "a", wf2); err != nil {
		t.Fatal(err)
	}
	// Also delete a second workflow entirely.
	wl.register(t, reg, "b")
	if err := reg.DeleteCtx(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}

	st.Close() // release fds + flock without a checkpoint (crash state)
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	if _, err := st2.RecoverWithRuns(recovered, nil); err != nil {
		t.Fatal(err)
	}
	if ids := recovered.IDs(); !reflect.DeepEqual(ids, []string{"a"}) {
		t.Fatalf("recovered IDs %v, want [a]", ids)
	}
	lw2, err := recovered.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	info, err := lw2.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Tasks != 2 || info.Version != 1 {
		t.Fatalf("recovered %+v, want the re-registered 2-task workflow at version 1", info)
	}
	st2.Close()
}

// TestConcurrentJournaledMutations: distinct workflows journal through
// one store concurrently; the log must remain replayable and complete.
func TestConcurrentJournaledMutations(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	durable := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	reference := engine.NewRegistry(engine.New())
	const workers, muts = 4, 60
	workloads := make([]*mutationWorkload, workers)
	for w := 0; w < workers; w++ {
		workloads[w] = newMutationWorkload(t, 48, 512, int64(100+w))
		workloads[w].register(t, durable, fmt.Sprintf("wf-%d", w))
		workloads[w].register(t, reference, fmt.Sprintf("wf-%d", w))
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lw, err := durable.Get(fmt.Sprintf("wf-%d", w))
			if err != nil {
				errs[w] = err
				return
			}
			for i := 0; i < muts; i++ {
				if _, err := lw.MutateCtx(context.Background(), workloads[w].mutation(i)); err != nil {
					errs[w] = fmt.Errorf("mutation %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st.Close() // release fds + flock without a checkpoint (crash state)
	for w := 0; w < workers; w++ {
		lw, err := reference.Get(fmt.Sprintf("wf-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < muts; i++ {
			if _, err := lw.MutateCtx(context.Background(), workloads[w].mutation(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	if _, err := st2.RecoverWithRuns(recovered, nil); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, recovered, reference)
	st2.Close()
}

// TestDirtyDirRequiresRecover: journaling into a directory that holds
// state without recovering it first must be refused.
func TestDirtyDirRequiresRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl := newMutationWorkload(t, 16, 64, 9)
	wl.register(t, reg, "w")

	st.Close()
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg2 := engine.NewRegistry(engine.New(), engine.WithJournal(st2))
	wf, err := workflow.NewBuilder("x").AddTask("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.RegisterCtx(context.Background(), "x", wf); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("journaling before Recover = %v, want recovery guard", err)
	}
}

// TestDeleteRegisterRaceDurability hammers concurrent Delete/Register of
// one ID through the journal: whatever interleaving happens, the journal
// must end ordered so that recovery reproduces the registry's final
// state (the historical hazard: a delete record overtaking a newer
// registration's record and destroying its snapshot).
func TestDeleteRegisterRaceDurability(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	mkwf := func() *workflow.Workflow {
		wf, err := workflow.NewBuilder("x").AddTask("a").AddTask("b").Chain("a", "b").Build()
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	if _, err := reg.RegisterCtx(context.Background(), "x", mkwf()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(del bool) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if del {
					reg.DeleteCtx(context.Background(), "x") // unknown-workflow errors expected mid-race
				} else if _, err := reg.RegisterCtx(context.Background(), "x", mkwf()); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
		}(i == 0)
	}
	wg.Wait()
	// Settle on a known final state, then recover cold and compare.
	if _, err := reg.RegisterCtx(context.Background(), "x", mkwf()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	if _, err := st2.RecoverWithRuns(recovered, nil); err != nil {
		t.Fatal(err)
	}
	assertRegistriesEqual(t, recovered, reg)
	st2.Close()
}

// TestLockExcludesSecondStore: two stores (two daemons) must never share
// one directory — interleaved appends would corrupt the WAL beyond
// recovery, so the second Open fails while the first holds the flock.
func TestLockExcludesSecondStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts()); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open on a held directory = %v, want lock error", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	st2.Close()
}

// TestViewChurnTriggersSnapshot: repeatedly replacing a view must feed
// the snapshot trigger like mutations do, so a workflow that never
// mutates still gets folded into snapshots and its log stays bounded.
func TestViewChurnTriggersSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNone, SnapshotBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl := newMutationWorkload(t, 24, 64, 13)
	lw := wl.register(t, reg, "w")
	const churn = 200
	for i := 0; i < churn; i++ {
		if _, _, err := lw.AttachViewCtx(context.Background(), "interval", func(wf *workflow.Workflow) (*view.View, error) {
			return gen.IntervalView(wf, 2+wf.N()/8, "interval"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	stats, err := st2.RecoverWithRuns(recovered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed >= churn {
		t.Fatalf("replayed %d of %d attach records: view churn never triggered a snapshot", stats.Replayed, churn)
	}
	assertRegistriesEqual(t, recovered, reg)
	st2.Close()
}

// TestRecoverRefusesUndersizedCapacity: restoring more workflows than
// the registry holds would evict (= durably delete) the overflow, so
// recovery must refuse instead.
func TestRecoverRefusesUndersizedCapacity(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl := newMutationWorkload(t, 16, 64, 21)
	for i := 0; i < 3; i++ {
		wl.register(t, reg, fmt.Sprintf("wf-%d", i))
	}
	st.Close()

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	small := engine.NewRegistry(engine.New(), engine.WithRegistryCapacity(2))
	if _, err := st2.RecoverWithRuns(small, nil); err == nil || !strings.Contains(err.Error(), "live-workflows") {
		t.Fatalf("recover into capacity 2 = %v, want refusal", err)
	}
	// No snapshot was deleted by the refused recovery.
	st2.Close()
	st3, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	big := engine.NewRegistry(engine.New())
	stats, err := st3.RecoverWithRuns(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workflows != 3 {
		t.Fatalf("recovered %d workflows after the refused attempt, want 3", stats.Workflows)
	}
	st3.Close()
}

// copyDir clones the store directory so each truncation experiment works
// on its own files.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailEveryByteOffset is the crash-atomicity property test: the
// WAL is truncated at every byte offset of the last record, and replay
// must restore either the pre-batch or the post-batch state — the torn
// record is discarded whole, never half-applied.
func TestTornTailEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	// One big segment, snapshots effectively off past registration: the
	// final mutate record must be the only thing separating pre and post.
	st, err := Open(dir, Options{Fsync: FsyncNone, SegmentBytes: 1 << 20, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl := newMutationWorkload(t, 24, 128, 11)
	lw := wl.register(t, reg, "w")
	if _, err := lw.MutateCtx(context.Background(), wl.mutation(0)); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, segName(1))
	preStat, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	preSize := preStat.Size()
	preVersion := lw.Version()
	preDocs := mustRegistryFingerprint(t, reg)

	// The last record: a batch adding a task and two edges.
	final := engine.Mutation{
		Tasks: []workflow.Task{{ID: "torn-task"}},
		Edges: [][2]string{{wl.candidates[0][0], "torn-task"}, wl.candidates[40]},
	}
	if _, err := lw.MutateCtx(context.Background(), final); err != nil {
		t.Fatal(err)
	}
	postStat, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	postSize := postStat.Size()
	postVersion := lw.Version()
	postDocs := mustRegistryFingerprint(t, reg)
	if postSize <= preSize {
		t.Fatalf("final record added no bytes (%d → %d)", preSize, postSize)
	}

	for cut := preSize; cut <= postSize; cut++ {
		dir2 := t.TempDir()
		copyDir(t, dir, dir2)
		if err := os.Truncate(filepath.Join(dir2, segName(1)), cut); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir2, Options{Fsync: FsyncNone})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		reg2 := engine.NewRegistry(engine.New())
		if _, err := st2.RecoverWithRuns(reg2, nil); err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		lw2, err := reg2.Get("w")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		version := lw2.Version()
		docs := mustRegistryFingerprint(t, reg2)
		switch {
		case cut == postSize:
			if version != postVersion || docs != postDocs {
				t.Fatalf("cut %d (complete record): version %d docs diverge from post-batch state", cut, version)
			}
		default:
			if version != preVersion || docs != preDocs {
				t.Fatalf("cut %d: version %d, want pre-batch version %d with identical state (torn record must be atomic)",
					cut, version, preVersion)
			}
		}
		st2.Close()
	}
}

// mustRegistryFingerprint renders the full registry state (documents +
// reports) as one string for equality checks.
func mustRegistryFingerprint(t *testing.T, reg *engine.Registry) string {
	t.Helper()
	var b strings.Builder
	for _, id := range reg.IDs() {
		lw, err := reg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lw.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s@%d:%s\n", info.ID, info.Version, info.Fingerprint)
		docs := stateDocs(t, lw)
		keys := make([]string, 0, len(docs))
		for k := range docs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s\n", k, docs[k])
		}
		for _, vid := range info.Views {
			rep, ver, err := lw.Report(vid)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "report:%s@%d=%s\n", vid, ver, raw)
		}
	}
	return b.String()
}

// --- run durability -----------------------------------------------------------

// runDoc builds a deterministic small trace over the workload's task
// space: a chain of four artifacts produced by four tasks.
func (w *mutationWorkload) runDoc(i int) (string, []byte) {
	runID := fmt.Sprintf("run-%d", i)
	n := w.wf.N()
	type art struct {
		ID  string `json:"id"`
		Gen string `json:"generated_by,omitempty"`
	}
	type used struct {
		Process  string `json:"process"`
		Artifact string `json:"artifact"`
	}
	doc := struct {
		Run       string `json:"run"`
		Artifacts []art  `json:"artifacts"`
		Used      []used `json:"used"`
	}{Run: runID}
	var tasks []string
	for k := 0; k < 4; k++ {
		tasks = append(tasks, w.wf.Task((i*7+k*13)%n).ID)
	}
	for k, task := range tasks {
		doc.Artifacts = append(doc.Artifacts, art{ID: fmt.Sprintf("%s/a%d", runID, k), Gen: task})
		if k > 0 {
			doc.Used = append(doc.Used, used{Process: task, Artifact: doc.Artifacts[k-1].ID})
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return runID, raw
}

// assertRunsEqual compares the run stores' contents and a sample of
// lineage answers byte-for-byte.
func assertRunsEqual(t *testing.T, id string, got, want *runs.Store) {
	t.Helper()
	gotRuns, err := got.Runs(id)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, err := want.Runs(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRuns, wantRuns) {
		t.Fatalf("run lists diverge:\ngot:  %+v\nwant: %+v", gotRuns, wantRuns)
	}
	for _, info := range wantRuns {
		for _, q := range []runs.Query{
			{Run: info.Run, Artifact: info.Run + "/a3", Witness: true},
			{Run: info.Run, Artifact: info.Run + "/a3", Level: runs.LevelAudited, View: "interval"},
		} {
			wantAns, err := want.LineageCtx(context.Background(), id, q)
			if err != nil {
				t.Fatal(err)
			}
			gotAns, err := got.LineageCtx(context.Background(), id, q)
			if err != nil {
				t.Fatal(err)
			}
			wantRaw, _ := json.Marshal(wantAns)
			gotRaw, _ := json.Marshal(gotAns)
			if string(wantRaw) != string(gotRaw) {
				t.Fatalf("lineage answer for %+v diverges:\ngot:  %s\nwant: %s", q, gotRaw, wantRaw)
			}
		}
	}
}

// TestRecoverRunsAfterHardKill is the run-store acceptance scenario: a
// stream of interleaved mutations and run ingestions (with snapshot and
// compaction churn), a hard kill, and a recovery whose run store must
// answer every lineage query byte-identically to a never-killed
// reference.
func TestRecoverRunsAfterHardKill(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 96, 2048, 43)

	durable := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	reference := engine.NewRegistry(engine.New())
	dlw := wl.register(t, durable, "phylo")
	rlw := wl.register(t, reference, "phylo")
	dRuns := runs.New(durable, runs.WithJournal(st))
	rRuns := runs.New(reference)
	st.SetRunProvider(dRuns)

	for i := 0; i < 300; i++ {
		m := wl.mutation(i)
		if _, err := dlw.MutateCtx(context.Background(), m); err != nil {
			t.Fatalf("mutation %d (durable): %v", i, err)
		}
		if _, err := rlw.MutateCtx(context.Background(), m); err != nil {
			t.Fatalf("mutation %d (reference): %v", i, err)
		}
		if i%3 == 0 {
			_, doc := wl.runDoc(i)
			if _, err := dRuns.IngestCtx(context.Background(), "phylo", doc); err != nil {
				t.Fatalf("ingest %d (durable): %v", i, err)
			}
			if _, err := rRuns.IngestCtx(context.Background(), "phylo", doc); err != nil {
				t.Fatalf("ingest %d (reference): %v", i, err)
			}
		}
	}
	// Replace one run late, so a replacement record replays too.
	_, doc := wl.runDoc(0)
	if _, err := dRuns.IngestCtx(context.Background(), "phylo", doc); err != nil {
		t.Fatal(err)
	}
	if _, err := rRuns.IngestCtx(context.Background(), "phylo", doc); err != nil {
		t.Fatal(err)
	}

	// Hard kill (no checkpoint), reopen cold, recover runs and registry.
	st.Close()
	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	recovered := engine.NewRegistry(engine.New())
	recRuns := runs.New(recovered)
	stats, err := st2.RecoverWithRuns(recovered, recRuns)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs == 0 {
		t.Fatalf("recovery restored no runs: %+v", stats)
	}
	assertRegistriesEqual(t, recovered, reference)
	assertRunsEqual(t, "phylo", recRuns, rRuns)

	// The recovered pair must accept new journaled traffic.
	st2.SetRunProvider(recRuns)
	recRuns.SetJournal(st2)
	recovered.SetJournal(st2)
	_, doc = wl.runDoc(9999)
	if _, err := recRuns.IngestCtx(context.Background(), "phylo", doc); err != nil {
		t.Fatal(err)
	}
	st2.Close()
}

// TestRecoverWithoutRestorerSkipsRuns pins backward compatibility: a
// directory holding run records recovers fine through the run-less
// Recover, skipping (not failing on) every run record.
func TestRecoverWithoutRestorerSkipsRuns(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	wl := newMutationWorkload(t, 32, 256, 11)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	wl.register(t, reg, "wf")
	rs := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rs)
	for i := 0; i < 8; i++ {
		_, doc := wl.runDoc(i)
		if _, err := rs.IngestCtx(context.Background(), "wf", doc); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered := engine.NewRegistry(engine.New())
	stats, err := st2.RecoverWithRuns(recovered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workflows != 1 || stats.Runs != 0 {
		t.Fatalf("run-less recovery stats: %+v", stats)
	}
}

// TestIngestVsReRegisterRecovers hammers run ingestion against
// concurrent same-ID re-registration. The ingestion path journals its
// recRun record inside the workflow's read lock, which orders it before
// the registration record of any replacing incarnation (close() needs
// the write lock first) — so no interleaving may ever produce a WAL
// whose replay fails. The registries re-register with different
// workflows (disjoint task spaces), so a mis-ordered record would
// surface as an invalid_trace replay error.
func TestIngestVsReRegisterRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	rs := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rs)

	mkWF := func(gen int) *workflow.Workflow {
		b := workflow.NewBuilder(fmt.Sprintf("g%d", gen))
		for i := 0; i < 8; i++ {
			b.AddTask(fmt.Sprintf("g%d-t%d", gen, i))
		}
		wf, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	if _, err := reg.RegisterCtx(context.Background(), "wf", mkWF(0)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for gen := 1; gen <= 40; gen++ {
			if _, err := reg.RegisterCtx(context.Background(), "wf", mkWF(gen)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// The task referenced may belong to an already-replaced
			// incarnation; that must fail the ingest (invalid_trace or
			// unknown workflow), never corrupt the log.
			gen := i % 41
			doc := fmt.Sprintf(`{"run":"r%d","artifacts":[{"id":"a%d","generated_by":"g%d-t0"}]}`, i, i, gen)
			if _, err := rs.IngestCtx(context.Background(), "wf", []byte(doc)); err != nil &&
				!engine.IsCode(err, engine.ErrInvalidTrace) && !engine.IsCode(err, engine.ErrUnknownWorkflow) {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	st.Close()

	st2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered := engine.NewRegistry(engine.New())
	recRuns := runs.New(recovered)
	if _, err := st2.RecoverWithRuns(recovered, recRuns); err != nil {
		t.Fatalf("recovery must survive any ingest/re-register interleaving: %v", err)
	}
	if got := recovered.IDs(); len(got) != 1 || got[0] != "wf" {
		t.Fatalf("recovered IDs = %v", got)
	}
}

// legacyDocBytes is docBytes as it was encoded before the quoted base64
// was appended directly: EncodeToString, then json.Marshal of the
// string, and the mirror-image decode.
type legacyDocBytes []byte

func (d legacyDocBytes) MarshalJSON() ([]byte, error) {
	if len(d) > 0 && d[0] == '{' {
		return d, nil
	}
	return json.Marshal(base64.StdEncoding.EncodeToString(d))
}

func (d *legacyDocBytes) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return err
		}
		*d = raw
		return nil
	}
	*d = append([]byte(nil), b...)
	return nil
}

// legacySnapshotDoc is snapshotDoc over legacyDocBytes.
type legacySnapshotDoc struct {
	LSN      uint64          `json:"lsn"`
	ID       string          `json:"id"`
	Version  uint64          `json:"version"`
	Workflow json.RawMessage `json:"workflow"`
	Views    []snapshotView  `json:"views,omitempty"`
	Runs     []struct {
		ID  string         `json:"id"`
		Doc legacyDocBytes `json:"doc"`
	} `json:"runs,omitempty"`
}

// TestSnapshotDocBytesMatchLegacyEncoding pins the snapshot run-document
// encoding byte for byte to the json.Marshal-of-a-base64-string form it
// replaced: the snapshot files a durable store writes re-encode
// identically through the legacy shape, synthetic documents of every
// length and both eras encode identically, and decoding returns the
// original bytes.
func TestSnapshotDocBytesMatchLegacyEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	doc := &snapshotDoc{LSN: 9, ID: "wf", Version: 3, Workflow: json.RawMessage(`{"name":"w"}`)}
	for n := 0; n < 40; n++ {
		b := make([]byte, n)
		rng.Read(b)
		if n > 0 && b[0] == '{' {
			b[0] = 0xD1 // a JSON-era document is tested below
		}
		doc.Runs = append(doc.Runs, snapshotRun{ID: fmt.Sprint("r", n), Doc: b})
	}
	doc.Runs = append(doc.Runs, snapshotRun{ID: "json-era", Doc: docBytes(`{"run":"json-era","artifacts":[{"id":"a"}]}`)})
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var legacy legacySnapshotDoc
	if err := json.Unmarshal(got, &legacy); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("snapshot encoding diverges from the legacy form:\n got: %s\nwant: %s", got, want)
	}
	var back snapshotDoc
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	for i, r := range doc.Runs {
		if string(back.Runs[i].Doc) != string(r.Doc) || string(legacy.Runs[i].Doc) != string(r.Doc) {
			t.Fatalf("run %s: document did not round-trip", r.ID)
		}
	}

	// Escaped base64 (a JSON writer may spell '/' as "\/" or any byte as
	// \u00XX) decodes to the same bytes; broken base64 fails.
	raw := []byte{0xD1, 0xff, 0xfe, 0x3f, 0xfc, 0x00}
	enc := base64.StdEncoding.EncodeToString(raw)
	for _, quoted := range []string{
		`"` + enc + `"`,
		`"` + strings.ReplaceAll(enc, "/", `\/`) + `"`,
		`"\u00` + fmt.Sprintf("%x", enc[0]) + enc[1:] + `"`,
	} {
		var d docBytes
		if err := json.Unmarshal([]byte(quoted), &d); err != nil || string(d) != string(raw) {
			t.Fatalf("decode %s = %x, %v; want %x", quoted, []byte(d), err, raw)
		}
	}
	for _, bad := range []string{`"@@@@"`, `"QUJ"`, "\"\xff\xfe\""} {
		var d docBytes
		if err := json.Unmarshal([]byte(bad), &d); err == nil {
			t.Fatalf("broken base64 %q decoded to %x", bad, []byte(d))
		}
	}

	// Real snapshot files: a durable store with runs writes them, and
	// each re-encodes byte-identically through the legacy shape.
	dir := t.TempDir()
	opts := testOpts()
	opts.SnapshotEvery = 4
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := newMutationWorkload(t, 64, 16, 15)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	rs := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rs)
	w.register(t, reg, "wf")
	for i := 0; i < 12; i++ {
		id, d := w.runDoc(i)
		if _, err := rs.IngestCtx(context.Background(), "wf", d); err != nil {
			t.Fatalf("ingest %s: %v", id, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if len(files) == 0 {
		t.Fatal("no snapshot written")
	}
	withRuns := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var l legacySnapshotDoc
		if err := json.Unmarshal(data, &l); err != nil {
			t.Fatal(err)
		}
		withRuns += len(l.Runs)
		re, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(data) {
			t.Fatalf("%s differs from its legacy re-encoding", f)
		}
	}
	if withRuns == 0 {
		t.Fatal("no snapshot embeds a run document")
	}
}
