package storage

import (
	"context"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/runs"
)

// benchRecoverDir builds a run-heavy crashed data dir: four workflows,
// each with a trickle of mutations and a flood of ingested runs — the
// record mix of a provenance store doing its job (PR 9's motivating
// profile). legacy selects the pre-PR-9 encodings (JSON record bodies,
// JSON canonical run documents) for the baseline config. Snapshots are
// disabled so recovery replays every record.
func benchRecoverDir(b *testing.B, legacy bool) (string, int64) {
	b.Helper()
	dir := b.TempDir()
	opts := Options{Fsync: FsyncNone, SnapshotBytes: 1 << 40, LegacyJSONBodies: legacy}
	st, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	reg := engine.NewRegistry(engine.New(), engine.WithJournal(st))
	rsOpts := []runs.Option{runs.WithJournal(st)}
	if legacy {
		rsOpts = append(rsOpts, runs.WithLegacyJSONDocs())
	}
	rs := runs.New(reg, rsOpts...)
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
// Open + RecoverWithRuns + Close over a run-heavy WAL — in the three
// configurations PR 9 compares:
//
//	json/workers=1      the pre-PR-9 baseline: JSON record bodies, JSON
//	                    canonical run documents, sequential replay
//	binary/workers=1    binary bodies + binary run documents, sequential
//	binary/workers=N    same bytes through the parallel replay pipeline
//
// Reported as records/sec. The acceptance bar is binary ≥ 3x json.
func BenchmarkRecover(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		legacy  bool
		workers int
	}{
		{"json/workers=1", true, 1},
		{"binary/workers=1", false, 1},
		{"binary/workers=max", false, 0}, // 0 = GOMAXPROCS
	} {
		b.Run(cfg.name, func(b *testing.B) {
			dir, records := benchRecoverDir(b, cfg.legacy)
			b.ReportAllocs()
			b.ResetTimer()
			var replayed int64
			for i := 0; i < b.N; i++ {
				st, err := Open(dir, Options{Fsync: FsyncNone, RecoveryWorkers: cfg.workers})
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
