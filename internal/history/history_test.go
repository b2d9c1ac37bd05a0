package history_test

import (
	"testing"

	"wolves/internal/history"
)

// FuzzHistory checks a history of every operation but the durable ones
// against the registry and the run store; the input is the seed and the
// history length. The corpus under testdata/fuzz/FuzzHistory replays in
// the ordinary test run.
func FuzzHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, length uint16) {
		history.Run(t, history.Config{Layer: history.Runs, Seed: seed, Tasks: [2]int{8, 48},
			Mix: map[history.Kind]int{history.Register: 1, history.Mutate: 10, history.Grow: 3, history.Attach: 2,
				history.Detach: 1, history.Ingest: 2, history.Lineage: 4, history.Correct: 1}}, int(length%400))
	})
}
