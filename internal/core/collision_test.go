package core

import (
	"context"
	"slices"
	"testing"

	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// collisionCase is a view whose unsound composite a = {p, q} sits next
// to a composite already called "a.1": s fans out to p, q and r, which
// all feed t, and the view groups a.1 = {r}, a = {p, q}, b = {s},
// c = {t}. Splitting a must not fold one of its blocks into a.1.
func collisionCase(t *testing.T) (*workflow.Workflow, *view.View) {
	t.Helper()
	wf, err := workflow.NewBuilder("collide").
		AddTask("s").AddTask("p").AddTask("q").AddTask("r").AddTask("t").
		AddEdge("s", "p").AddEdge("s", "q").AddEdge("s", "r").
		AddEdge("p", "t").AddEdge("q", "t").AddEdge("r", "t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := view.NewBuilder(wf, "v").
		Assign("a.1", "r").Assign("a", "p", "q").Assign("b", "s").Assign("c", "t").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return wf, v
}

// TestStrongCorrectionNeverFoldsIntoExistingComposite: the corrected
// view must be sound, keep a.1 = {r} as it was, and hold one composite
// more per extra block. Block names skip every ID the view already uses.
func TestStrongCorrectionNeverFoldsIntoExistingComposite(t *testing.T) {
	wf, v := collisionCase(t)
	o := soundness.NewOracle(wf)
	vc, err := CorrectViewCtx(context.Background(), o, v, Strong, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vc.Tasks) != 1 || vc.Tasks[0].CompositeID != "a" {
		t.Fatalf("corrected %+v, want exactly composite a", vc.Tasks)
	}
	blocks := vc.Tasks[0].After
	if want := vc.CompositesBefore - 1 + blocks; vc.CompositesAfter != want || vc.Corrected.N() != want {
		t.Fatalf("corrected view has %d composites (reported %d), want %d", vc.Corrected.N(), vc.CompositesAfter, want)
	}
	if rep := soundness.ValidateView(o, vc.Corrected); !rep.Sound {
		t.Fatalf("corrected view is unsound: %v", rep.Unsound)
	}
	a1, ok := vc.Corrected.CompositeByID("a.1")
	if !ok || !slices.Equal(a1.Members(), []int{wf.MustIndex("r")}) {
		t.Fatalf("a.1 = %v, want {r}", vc.Corrected.Describe())
	}
	for i, want := range []string{"a.2", "a.3"}[:blocks] {
		if got := vc.Corrected.Composite(1 + i).ID; got != want {
			t.Fatalf("block %d is named %q, want %q:\n%s", i, got, want, vc.Corrected.Describe())
		}
	}
}
