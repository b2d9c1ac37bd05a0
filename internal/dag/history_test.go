package dag_test

import (
	"testing"

	"wolves/internal/dag"
	"wolves/internal/history"
)

// TestIncrementalClosureRandomEquivalence checks a random history of
// growth and edge batches on layered DAGs of 8–128 tasks: after every
// growth and insertion the closure matrix and both label directions
// equal a fresh Reachability, cycle rejections agree with it, and dirty
// sets cover the edge endpoints. The bitmap subtest forces bitmap label
// rows, so AddEdge's ancestor walk runs over both row kinds.
func TestIncrementalClosureRandomEquivalence(t *testing.T) {
	for _, name := range []string{"intervals", "bitmap"} {
		t.Run(name, func(t *testing.T) {
			history.Run(t, history.Config{Layer: history.DAG, Seed: 42, Tasks: [2]int{8, 128},
				Closure: dag.ClosureUnder(name), Check: func(ic *dag.IncrementalClosure) { dag.CheckAgainstScratch(t, ic) },
				Mix: map[history.Kind]int{history.Register: 1, history.Mutate: 80, history.Grow: 4}}, 600)
		})
	}
}
