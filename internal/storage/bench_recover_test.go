package storage

import (
	"context"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/runs"
)

// benchRecoverDir builds a run-heavy crashed data dir: four workflows,
// each with a trickle of mutations and a flood of ingested runs — the
// record mix of a provenance store doing its job. Snapshots are
// disabled so recovery replays every record.
func benchRecoverDir(b *testing.B) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNone, SnapshotBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	rs := runs.New(reg, runs.WithJournal(st))
	st.SetRunProvider(rs)

	var records int64
	for k, id := range []string{"wf-a", "wf-b", "wf-c", "wf-d"} {
		wl := newMutationWorkload(b, 128, 1024, int64(300+k))
		lw := wl.register(b, reg, id)
		for i := 0; i < 64; i++ {
			if _, err := lw.MutateCtx(context.Background(), wl.mutation(i)); err != nil {
				b.Fatal(err)
			}
			records++
		}
		for i := 0; i < 512; i++ {
			_, doc := wl.runDoc(i)
			if _, err := rs.IngestCtx(context.Background(), id, doc); err != nil {
				b.Fatal(err)
			}
			records++
		}
	}
	if err := st.Close(); err != nil { // hard kill: no checkpoint
		b.Fatal(err)
	}
	return dir, records
}

// BenchmarkRecover measures end-to-end cold-boot recovery throughput —
// Open + RecoverWithRuns + Close over a run-heavy WAL of binary bodies
// and binary run documents — at two replay widths:
//
//	binary/workers=1    the sequential reference
//	binary/workers=max  the parallel replay pipeline, GOMAXPROCS wide
//
// Reported as records/sec.
func BenchmarkRecover(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"binary/workers=1", 1},
		{"binary/workers=max", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(cfg.name, func(b *testing.B) {
			dir, records := benchRecoverDir(b)
			b.ReportAllocs()
			b.ResetTimer()
			var replayed int64
			for i := 0; i < b.N; i++ {
				st, err := Open(dir, Options{Fsync: FsyncNone, recoveryWorkers: cfg.workers})
				if err != nil {
					b.Fatal(err)
				}
				reg := engine.NewRegistry(engine.New())
				rs := runs.New(reg)
				stats, err := st.RecoverWithRuns(reg, rs)
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
		})
	}
}
