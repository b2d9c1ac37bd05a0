package storage

import (
	"context"
	"fmt"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// benchRegistryWorkload builds the mutation benchmark workload: a
// layered workflow, an n/16-composite interval view, and a cycle-free
// candidate edge stream. BenchmarkMutateInMemory runs it without a
// journal in the same package, so the journaled variant's overhead is
// isolated to the journal itself.
func benchRegistryWorkload(b *testing.B, n int) (*workflow.Workflow, *view.View, [][2]string) {
	b.Helper()
	wl := newMutationWorkload(b, n, 8192, int64(n))
	wf := wl.wf.Clone()
	return wf, gen.IntervalView(wf, n/16, "bench-view"), wl.candidates
}

// setupBenchRegistry registers the workload into a registry wired to j.
func setupBenchRegistry(b *testing.B, wf *workflow.Workflow, v *view.View, j engine.Journal) *engine.LiveWorkflow {
	b.Helper()
	var reg *engine.Registry
	if j != nil {
		reg = engine.NewRegistry(engine.New(), engine.WithJournal(j))
	} else {
		reg = engine.NewRegistry(engine.New())
	}
	lw, err := reg.RegisterCtx(context.Background(), "bench", wf)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "v", func(*workflow.Workflow) (*view.View, error) {
		return v, nil
	}); err != nil {
		b.Fatal(err)
	}
	return lw
}

// benchCandidates reuses the workload generator's candidate stream; past
// the pool the stream wraps to duplicate edges, so record numbers with
// -benchtime=2000x or lower (exactly like BenchmarkMutateIncremental).
func runMutateBench(b *testing.B, lw *engine.LiveWorkflow, cands [][2]string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lw.MutateCtx(context.Background(), engine.Mutation{Edges: [][2]string{cands[i%len(cands)]}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutateInMemory is the journal-less baseline, in this package
// so the journaled variant's overhead is measured on identical hardware
// in the same run.
func BenchmarkMutateInMemory(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wf, v, cands := benchRegistryWorkload(b, n)
			lw := setupBenchRegistry(b, wf, v, nil)
			runMutateBench(b, lw, cands)
		})
	}
}

// BenchmarkMutateJournaled measures the registry mutation path with the
// durable journal attached: encode + checksummed WAL append per commit.
// (Snapshots are size-proportional — one fires only after the workflow
// writes max(SnapshotBytes, snapshot size) of log, so their amortized
// cost per append is bounded by a constant factor of the append itself
// and none fire in this loop.) The acceptance bar is within 2x of
// BenchmarkMutateInMemory under fsync=none.
func BenchmarkMutateJournaled(b *testing.B) {
	for _, mode := range []FsyncMode{FsyncNone, FsyncBatch} {
		for _, n := range []int{1024, 4096} {
			b.Run(fmt.Sprintf("fsync=%s/n=%d", mode, n), func(b *testing.B) {
				wf, v, cands := benchRegistryWorkload(b, n)
				st, err := Open(b.TempDir(), Options{Fsync: mode})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				lw := setupBenchRegistry(b, wf, v, st)
				runMutateBench(b, lw, cands)
			})
		}
	}
}

// BenchmarkWALAppend measures the raw record path: encode, checksum,
// write, and (per mode) wait for durability, for a typical single-edge
// mutation record.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []FsyncMode{FsyncNone, FsyncBatch, FsyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			// Snapshots off: this measures the append path alone.
			st, err := Open(b.TempDir(), Options{Fsync: mode, SnapshotBytes: 1 << 40})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			batch := &engine.AppliedBatch{Edges: [][2]string{{"task-0001", "task-0002"}}}
			stl := &engine.LiveState{ID: "bench", Version: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stl.Version++
				if err := st.Committed(context.Background(), batch, stl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplay measures recovery throughput: a WAL of single-edge
// mutation records over a 256-task workflow with one attached view,
// replayed into a fresh registry. Reported as records/sec.
func BenchmarkReplay(b *testing.B) {
	const records = 2000
	dir := b.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNone, SnapshotBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	wl := newMutationWorkload(b, 256, records, 5)
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	lw, err := reg.RegisterCtx(context.Background(), "bench", wl.wf.Clone())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "v", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 16, "v"), nil
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := lw.MutateCtx(context.Background(), engine.Mutation{Edges: [][2]string{wl.candidates[i]}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	var replayed int64
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, Options{Fsync: FsyncNone})
		if err != nil {
			b.Fatal(err)
		}
		fresh := engine.NewRegistry(engine.New())
		stats, err := st.RecoverWithRuns(fresh, nil)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Replayed < records {
			b.Fatalf("replayed %d records, want >= %d", stats.Replayed, records)
		}
		replayed += stats.Replayed
		st.Close()
	}
	b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "records/sec")
}
