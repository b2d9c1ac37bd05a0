package feedback

import (
	"context"
	"slices"
	"testing"

	"wolves/internal/core"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TestSplitNeverFoldsIntoExistingComposite: the "Split Task" operation
// applies its blocks with ReplaceComposites too, so splitting a = {p, q}
// next to an existing composite a.1 = {r} must leave a.1 alone and give
// a sound view with one composite more per extra block.
func TestSplitNeverFoldsIntoExistingComposite(t *testing.T) {
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
	s, err := NewSession(wf, v)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SplitTaskCtx(context.Background(), "a", core.Strong, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Current()
	if want := v.N() - 1 + len(res.Blocks); cur.N() != want {
		t.Fatalf("split view has %d composites, want %d:\n%s", cur.N(), want, cur.Describe())
	}
	if !mustValidate(t, s).Sound {
		t.Fatalf("split view is unsound:\n%s", cur.Describe())
	}
	a1, ok := cur.CompositeByID("a.1")
	if !ok || !slices.Equal(a1.Members(), []int{wf.MustIndex("r")}) {
		t.Fatalf("a.1 changed:\n%s", cur.Describe())
	}
}
