package provenance

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wolves/internal/core"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/workflow"
)

func lineageIDs(e *Engine, wf *workflow.Workflow, id string) []string {
	var out []string
	for _, t := range e.Lineage(wf.MustIndex(id)) {
		out = append(out, wf.Task(t).ID)
	}
	return out
}

func TestWorkflowLineage(t *testing.T) {
	wf, _ := repo.Figure1()
	e := NewEngine(wf)
	// Provenance of task 8 (format alignment): 1,2,6,7.
	if got := lineageIDs(e, wf, "8"); !reflect.DeepEqual(got, []string{"1", "2", "6", "7"}) {
		t.Fatalf("lineage(8) = %v", got)
	}
	// Task 3 is NOT in the provenance of 8 — the paper's point.
	if e.Reaches(wf.MustIndex("3"), wf.MustIndex("8")) {
		t.Fatal("3 must not reach 8")
	}
	// Descendants of 9: 10, 11, 12.
	var desc []string
	for _, d := range e.Descendants(wf.MustIndex("9")) {
		desc = append(desc, wf.Task(d).ID)
	}
	if !reflect.DeepEqual(desc, []string{"10", "11", "12"}) {
		t.Fatalf("descendants(9) = %v", desc)
	}
	if e.ClosurePairs() <= 0 {
		t.Fatal("closure pairs must be positive")
	}
}

// TestFigure1ProvenanceStory reproduces the paper's §1 narrative end to
// end: the unsound view reports composite 14 in the provenance of 18;
// the corrected view does not.
func TestFigure1ProvenanceStory(t *testing.T) {
	wf, v := repo.Figure1()
	e := NewEngine(wf)
	ve := NewViewEngine(v)

	t18, _ := v.CompIndex("18")
	var ancIDs []string
	for _, c := range ve.CompositeLineage(t18) {
		ancIDs = append(ancIDs, v.Composite(c).ID)
	}
	// "all the outputs of tasks (13), (14), (15) and (16) will be
	// considered as the provenance of the output of task (18)".
	if !reflect.DeepEqual(ancIDs, []string{"13", "14", "15", "16"}) {
		t.Fatalf("view lineage of 18 = %v, want [13 14 15 16]", ancIDs)
	}

	// Ground truth: task 3 (inside 14) does not reach task 8 (inside 18).
	audit := AuditView(e, v)
	if audit.FalsePairs == 0 || audit.WrongQueries == 0 {
		t.Fatalf("audit must flag the unsound view: %+v", audit)
	}
	if audit.MissingPairs != 0 {
		t.Fatalf("views can never miss provenance: %+v", audit)
	}
	if audit.Precision >= 1.0 {
		t.Fatalf("precision must drop below 1: %+v", audit)
	}

	// Correct the view and re-audit: errors disappear.
	o := soundness.NewOracle(wf)
	vc, err := core.CorrectViewCtx(context.Background(), o, v, core.Strong, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	audit2 := AuditView(e, vc.Corrected)
	if audit2.FalsePairs != 0 || audit2.WrongQueries != 0 || audit2.Precision != 1.0 {
		t.Fatalf("corrected view must audit clean: %+v", audit2)
	}

	// And the task-level view answer for 8 no longer contains 3.
	ve2 := NewViewEngine(vc.Corrected)
	got := ve2.TaskLineage(wf.MustIndex("8"))
	for _, task := range got {
		if wf.Task(task).ID == "3" {
			t.Fatal("corrected view still reports 3 in provenance of 8")
		}
	}
	// The unsound view did contain 3.
	before := ve.TaskLineage(wf.MustIndex("8"))
	found := false
	for _, task := range before {
		if wf.Task(task).ID == "3" {
			found = true
		}
	}
	if !found {
		t.Fatal("unsound view should report 3 in provenance of 8")
	}
}

func TestViewEngineClosureSmaller(t *testing.T) {
	wf, v := repo.Figure1()
	e := NewEngine(wf)
	ve := NewViewEngine(v)
	if ve.ClosurePairs() >= e.ClosurePairs() {
		t.Fatalf("view closure (%d) should be smaller than task closure (%d)",
			ve.ClosurePairs(), e.ClosurePairs())
	}
}

func TestTrace(t *testing.T) {
	wf, _ := repo.Figure1()
	e := NewEngine(wf)
	tr := Execute(wf, "run1")
	if len(tr.Artifacts()) != wf.N() {
		t.Fatalf("artifacts = %d", len(tr.Artifacts()))
	}
	if len(tr.Used()) != wf.M() {
		t.Fatalf("used edges = %d, want %d", len(tr.Used()), wf.M())
	}
	art, err := tr.ArtifactOf("8")
	if err != nil || art.Producer != "8" || !strings.Contains(art.ID, "run1/8") {
		t.Fatalf("artifact = %+v, %v", art, err)
	}
	if _, err := tr.ArtifactOf("ghost"); err == nil {
		t.Fatal("unknown task must error")
	}
	lin, err := tr.ArtifactLineage(e, "8")
	if err != nil || len(lin) != 4 {
		t.Fatalf("artifact lineage = %v, %v", lin, err)
	}
	if _, err := tr.ArtifactLineage(e, "ghost"); err == nil {
		t.Fatal("unknown task must error")
	}
	var buf bytes.Buffer
	if err := tr.WriteOPM(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wasGeneratedBy", "run1/8/out", `"processes"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("OPM export missing %q", want)
		}
	}
}

func TestAuditViewMismatchPanics(t *testing.T) {
	wf, _ := repo.Figure1()
	f3 := repo.Figure3()
	e := NewEngine(wf)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AuditView(e, f3.View)
}

// TestAncestorsConcurrentBuild hammers the lazy ancestor-transpose build
// from many goroutines; under -race this pins the sync.Once guard that
// makes a cached lineage engine safe for concurrent first use.
func TestAncestorsConcurrentBuild(t *testing.T) {
	wf, _ := repo.Figure1()
	e := NewEngine(wf)
	want := e.Lineage(wf.MustIndex("11"))

	e2 := NewEngine(wf)
	var wg sync.WaitGroup
	results := make([][]int, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e2.Lineage(wf.MustIndex("11"))
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("goroutine %d: lineage %v, want %v", i, got, want)
		}
	}
}
