package storage_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"wolves/internal/history"
)

// TestChaosWorkloadRecoversToCommittedPrefix is the robustness
// capstone: per seed, a durable history of 1000 operations —
// replacements, mutation batches, ingests of single runs and batches,
// view churn, corrections, checkpoints and hard kills — runs while
// every filesystem operation fails with probability 0.02 (write
// errors, short writes, ENOSPC, fsync failures, torn renames).
// A fault may surface only as a typed degraded error, every answer stays
// the model's, and each hard kill recovers an applied prefix at or past
// the last acknowledged operation (group commit makes success durable).
//
// WOLVES_CHAOS_SEED_BASE and WOLVES_CHAOS_SEED_COUNT pick the seeds (1
// to 8 by default, two under -short), so CI can fan out a matrix.
func TestChaosWorkloadRecoversToCommittedPrefix(t *testing.T) {
	base, count := chaosEnv(t, "WOLVES_CHAOS_SEED_BASE", 1), chaosEnv(t, "WOLVES_CHAOS_SEED_COUNT", 8)
	if count <= 0 {
		t.Fatalf("WOLVES_CHAOS_SEED_COUNT=%d: want a positive count", count)
	}
	if testing.Short() && count > 2 {
		count = 2
	}
	for seed := base; seed < base+count; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			h := history.Run(t, history.Config{Layer: history.Durable, Seed: seed, Tasks: [2]int{96, 96},
				Mix: map[history.Kind]int{history.Register: 1, history.Mutate: 60, history.Grow: 5, history.Attach: 2, history.Detach: 2,
					history.Ingest: 7, history.Lineage: 3, history.Correct: 1, history.Checkpoint: 1, history.Crash: 1}}, 1000)
			if h.Injected == 0 {
				t.Fatalf("seed %d injected no faults; the history proved nothing", seed)
			}
		})
	}
}

func chaosEnv(t *testing.T, name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: %v", name, v, err)
		}
		return n
	}
	return def
}
