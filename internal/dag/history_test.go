package dag_test

import (
	"fmt"
	"testing"

	"wolves/internal/dag"
	"wolves/internal/history"
)

// TestIncrementalClosureRandomEquivalence checks a random history of
// growth and edge batches on layered DAGs of 8–128 tasks: after every
// growth and insertion the closure matrix and both label directions
// equal a fresh Reachability, cycle rejections agree with it, and dirty
// sets cover the edge endpoints. The labels hold rows of both
// containers, and patches move rows from each to the other, so
// AddEdge's ancestor walk and Patch run over both.
func TestIncrementalClosureRandomEquivalence(t *testing.T) {
	var census dag.RowCensus
	history.Run(t, history.Config{Layer: history.DAG, Seed: 42, Tasks: [2]int{8, 128},
		Closure: dag.NewIncrementalClosure, Check: func(ic *dag.IncrementalClosure) {
			dag.CheckAgainstScratch(t, ic)
			census.Observe(ic)
		},
		Mix: map[history.Kind]int{history.Register: 1, history.Mutate: 80, history.Grow: 4}}, 600)
	checkCensus(t, census)
}

// TestHistoryShapesHoldBothRowKinds replays, at the DAG layer, the
// workflows of the other history drivers — each driver's seed (so its
// first registration is the driver's own), task range and weights of
// registrations, edge batches and growth — and asserts the same row
// census, so each driver's equivalence checks meet both containers.
// The row counts are visible to this package's tests only.
func TestHistoryShapesHoldBothRowKinds(t *testing.T) {
	drivers := []struct {
		name  string
		seeds []int64
		tasks [2]int
		mix   map[history.Kind]int
	}{
		{"registry", []int64{123}, [2]int{24, 83}, map[history.Kind]int{history.Register: 1, history.Mutate: 35, history.Grow: 5}},
		{"runs", []int64{7}, [2]int{90, 90}, map[history.Kind]int{history.Mutate: 55, history.Grow: 25}},
		{"chaos", []int64{1, 2, 3, 4, 5, 6, 7, 8}, [2]int{96, 96}, map[history.Kind]int{history.Register: 1, history.Mutate: 60, history.Grow: 5}},
		{"fuzz", []int64{1, 2, -7}, [2]int{8, 48}, map[history.Kind]int{history.Register: 1, history.Mutate: 10, history.Grow: 3}},
	}
	for _, d := range drivers {
		for _, seed := range d.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", d.name, seed), func(t *testing.T) {
				var census dag.RowCensus
				history.Run(t, history.Config{Layer: history.DAG, Seed: seed, Tasks: d.tasks,
					Closure: dag.NewIncrementalClosure, Check: census.Observe, Mix: d.mix}, 150)
				checkCensus(t, census)
			})
		}
	}
}

// checkCensus asserts that a history's labels held rows of both
// containers and that patches moved rows into each.
func checkCensus(t *testing.T, c dag.RowCensus) {
	t.Helper()
	if c.Runs == 0 || c.Bitmaps == 0 || c.ToBitmap == 0 || c.ToRuns == 0 {
		t.Fatalf("rows seen: %d runs, %d bitmaps; patched %d runs to bitmaps and %d bitmaps to runs; want each > 0",
			c.Runs, c.Bitmaps, c.ToBitmap, c.ToRuns)
	}
}
