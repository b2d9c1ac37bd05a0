//go:build !race

package engine

import (
	"context"
	"fmt"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TestLiveLineageAllocationsFlat holds LiveWorkflow.Lineage to a fixed
// number of allocations, whatever the workflow's size: its marks come
// from the pooled scratch and its four lists share one exactly sized
// array, so a query on the wolvesbench shape (16 layers, p=0.05) through
// an interval view allocates the same at n=1,024 and n=4,096. It
// queries each workflow's last task in topological order, whose lists
// are all non-empty at both sizes. (The race runtime allocates on its
// own, so the test builds without -race only.)
func TestLiveLineageAllocationsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1024, 4096} {
		wf := gen.Layered(gen.LayeredConfig{Name: fmt.Sprintf("wf-%d", n), Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: 1})
		reg := NewRegistry(New())
		lw, err := reg.RegisterCtx(context.Background(), "wf", wf)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := lw.AttachViewCtx(context.Background(), "iv", func(wf *workflow.Workflow) (*view.View, error) {
			return gen.InjectUnsound(gen.IntervalView(wf, n/16, "iv"), 4, 1), nil
		}); err != nil {
			t.Fatal(err)
		}
		order, err := wf.Graph().TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		task := wf.Task(order[n-1]).ID
		res, err := lw.Lineage("iv", task)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.WorkflowLineage) == 0 || len(res.ViewLineage) == 0 || len(res.CompositeLineage) == 0 || len(res.FalsePositives) == 0 {
			t.Fatalf("n=%d: task %s has an empty list: %d workflow, %d view, %d composite, %d false positives", n, task,
				len(res.WorkflowLineage), len(res.ViewLineage), len(res.CompositeLineage), len(res.FalsePositives))
		}
		allocs[n] = testing.AllocsPerRun(50, func() {
			if _, err := lw.Lineage("iv", task); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1024] != allocs[4096] || allocs[4096] > 4 {
		t.Fatalf("LiveWorkflow.Lineage allocates %v objects at n=1024 and %v at n=4096; want the same few", allocs[1024], allocs[4096])
	}
	t.Logf("allocs per call: %v", allocs[4096])
}
