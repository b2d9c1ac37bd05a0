package wolves_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"wolves"
)

// TestEngineQuickStart mirrors the package-doc quick start through the
// public surface.
func TestEngineQuickStart(t *testing.T) {
	wf, err := wolves.NewWorkflowBuilder("demo").
		AddTask("extract").AddTask("cleanA").AddTask("cleanB").AddTask("load").
		AddEdge("extract", "cleanA").AddEdge("extract", "cleanB").
		AddEdge("cleanA", "load").AddEdge("cleanB", "load").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := wolves.ViewFromAssignments(wf, "v", map[string][]string{
		"in": {"extract"}, "clean": {"cleanA", "cleanB"}, "out": {"load"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := wolves.NewEngine()
	ctx := context.Background()
	report, err := eng.Validate(ctx, wf, v)
	if err != nil {
		t.Fatal(err)
	}
	if report.Sound {
		t.Fatal("clean composite must be unsound")
	}
	fixed, err := eng.Correct(ctx, wf, v, wolves.Strong)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := eng.Validate(ctx, wf, fixed.Corrected)
	if err != nil || !rep2.Sound {
		t.Fatalf("corrected view: rep=%+v err=%v", rep2, err)
	}
}

// TestEngineOracleCachePublic: repeated validation through the public
// Engine performs zero additional closure builds.
func TestEngineOracleCachePublic(t *testing.T) {
	eng := wolves.NewEngine(wolves.WithOracleCache(8))
	wf, v := wolves.Figure1()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := eng.Validate(ctx, wf, v); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.CacheStats()
	if s.Builds != 1 || s.Hits != 4 {
		t.Fatalf("cache stats after 5 validates: %+v", s)
	}
}

// TestEngineOptimalCancellationPublic: Engine.Correct under
// wolves.Optimal on a 20-member composite honors a short-deadline
// context with an ErrCanceled-coded *wolves.Error.
func TestEngineOptimalCancellationPublic(t *testing.T) {
	wf, members := wolves.GenUnsoundTask(20, 7)
	inComp := map[int]bool{}
	for _, m := range members {
		inComp[m] = true
	}
	// Build the view via assignments to embed exactly the unsound
	// composite, everything else singleton.
	assign := map[string][]string{}
	for i := 0; i < wf.N(); i++ {
		key := "t:" + wf.Task(i).ID
		if inComp[i] {
			key = "unsound"
		}
		assign[key] = append(assign[key], wf.Task(i).ID)
	}
	uv, err := wolves.ViewFromAssignments(wf, "uv", assign)
	if err != nil {
		t.Fatal(err)
	}

	eng := wolves.NewEngine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	_, err = eng.Correct(ctx, wf, uv, wolves.Optimal)
	late := time.Since(deadline)
	if err == nil {
		t.Skip("optimal correction finished before the deadline")
	}
	var ee *wolves.Error
	if !errors.As(err, &ee) || ee.Code != wolves.ErrCanceled {
		t.Fatalf("err = %v, want *wolves.Error with Code ErrCanceled", err)
	}
	if late > 100*time.Millisecond {
		t.Fatalf("returned %v after the deadline, want < 100ms", late)
	}
}
