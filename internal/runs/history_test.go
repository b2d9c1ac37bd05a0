package runs_test

import (
	"testing"

	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/history"
)

// TestLabelAnswersMatchClosureRows is the equivalence property behind
// the label-indexed serve path: over a long random history of edge
// batches (rejected cycles included), task growth, view attach and
// detach and runs ingested mid-stream, every lineage answer served from
// the epoch labels is byte-identical on the wire to the from-scratch
// closure reference, at every level and direction, witness included,
// and so is LiveWorkflow.Lineage through sound and unsound views; each
// epoch audit matches the reference audit.
func TestLabelAnswersMatchClosureRows(t *testing.T) {
	h := history.Run(t, history.Config{Layer: history.Runs, Seed: 7, Tasks: [2]int{90, 90},
		Mix: map[history.Kind]int{history.Mutate: 55, history.Grow: 25, history.Attach: 4, history.Detach: 6,
			history.Ingest: 12, history.Lineage: 15}}, 800)
	if h.FalsePositives == 0 {
		t.Fatal("no view lineage result carried false positives; the unsound views are not exercised")
	}
}

// TestDenseRowsLineageMatchesReference serves a workflow whose
// reachability rows are dense in both directions — two layers of 1024
// tasks at edge probability 0.5, 524k edges — so most of its task-level
// label rows are bitmaps: their interval covers would take about 4×
// the n²/8 bytes of a closure matrix. Every level and direction, and
// LiveWorkflow.Lineage, must still match the from-scratch reference,
// and each task-level index must stay within about one closure matrix.
func TestDenseRowsLineageMatchesReference(t *testing.T) {
	wf := gen.Layered(gen.LayeredConfig{Name: "dense", Tasks: 2048, Layers: 2, EdgeProb: 0.5, Seed: 1})
	n := wf.N()
	h := history.New(t, history.Config{Layer: history.Runs, Seed: 3})
	h.Do(history.Op{Kind: history.Register, WF: wf})
	h.Do(history.Op{Kind: history.Attach, View: "iv", Comps: history.Comps(gen.IntervalView(wf, 24, "iv"))})
	h.Step(history.Ingest)
	ep, _, err := h.Live().Read("")
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(n)*int64(n)/8 + 64*int64(n)
	for name, l := range map[string]*dag.Labels{"forward": ep.Labels(), "reverse": ep.RevLabels()} {
		if l.MemoryBytes() > bound {
			t.Fatalf("%s task index holds %d bytes, over n²/8 + O(n) = %d", name, l.MemoryBytes(), bound)
		}
	}
	for i := 0; i < 4; i++ {
		h.Step(history.Lineage)
	}
}
