package core

import (
	"context"
	"math/rand"
	"testing"

	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
)

func TestAdvisorCanAddAndSafeAdditions(t *testing.T) {
	wf, _ := repo.Figure1()
	o := soundness.NewOracle(wf)
	a := NewAdvisor(o)

	t4, t5, t7 := wf.MustIndex("4"), wf.MustIndex("5"), wf.MustIndex("7")
	// {4} + 5 stays sound (4→5 chain); {4} + 7 becomes the Figure 1
	// unsound composite.
	if !a.CanAdd([]int{t4}, t5) {
		t.Fatal("adding 5 to {4} must be safe")
	}
	if a.CanAdd([]int{t4}, t7) {
		t.Fatal("adding 7 to {4} recreates composite 16: unsafe")
	}
	safe := a.SafeAdditions([]int{t4}, []int{t5, t7, t4})
	if len(safe) != 1 || safe[0] != t5 {
		t.Fatalf("SafeAdditions = %v, want [%d]", safe, t5)
	}
}

func TestAdvisorComplete(t *testing.T) {
	wf, _ := repo.Figure1()
	o := soundness.NewOracle(wf)
	a := NewAdvisor(o)

	// Already sound drafts come back unchanged.
	t1, t2 := wf.MustIndex("1"), wf.MustIndex("2")
	got, ok := a.Complete([]int{t1, t2})
	if !ok || len(got) != 2 {
		t.Fatalf("Complete(sound) = %v, %v", got, ok)
	}

	// The unsound {4,7} draft must be extended to a sound superset.
	t4, t7 := wf.MustIndex("4"), wf.MustIndex("7")
	got, ok = a.Complete([]int{t4, t7})
	if !ok {
		t.Fatal("completion must exist")
	}
	if len(got) <= 2 {
		t.Fatalf("completion must grow the draft, got %v", got)
	}
	if sound, viol := o.SoundSlice(got); !sound {
		t.Fatalf("completion unsound: %v", viol)
	}
	// The original draft survives inside the completion.
	has := map[int]bool{}
	for _, x := range got {
		has[x] = true
	}
	if !has[t4] || !has[t7] {
		t.Fatalf("completion %v lost the draft tasks", got)
	}
}

func TestAdvisorCompleteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < 60; c++ {
		wf, members := randomCase(rng, 12)
		o := soundness.NewOracle(wf)
		a := NewAdvisor(o)
		got, ok := a.Complete(members)
		if !ok {
			t.Fatalf("case %d: completion must always exist (whole workflow is sound)", c)
		}
		if sound, viol := o.SoundSlice(got); !sound {
			t.Fatalf("case %d: completion unsound: %v", c, viol)
		}
	}
}

func TestCompactShrinksSoundViews(t *testing.T) {
	wf, v := repo.Figure1()
	o := soundness.NewOracle(wf)
	// Correct first, then compact: the interaction the paper leaves open.
	vc, err := CorrectViewCtx(context.Background(), o, v, Strong, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	compacted, merges, err := Compact(o, vc.Corrected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := soundness.ValidateView(o, compacted); !rep.Sound {
		t.Fatal("compacted view must stay sound")
	}
	if compacted.N() > vc.Corrected.N() {
		t.Fatal("compaction must not grow the view")
	}
	if merges > 0 && compacted.N() != vc.Corrected.N()-merges {
		t.Fatalf("merges=%d but composites %d → %d", merges, vc.Corrected.N(), compacted.N())
	}
	// No remaining pair is combinable: the compacted view is weakly
	// locally optimal at the view level.
	var blocks [][]int
	for ci := 0; ci < compacted.N(); ci++ {
		blocks = append(blocks, compacted.Composite(ci).Members())
	}
	if ok, pair := WeakOptimal(o, blocks); !ok {
		t.Fatalf("compacted view still has combinable pair %v", pair)
	}
}

func TestCompactRespectsMaxMerges(t *testing.T) {
	// An atomic view of a chain merges aggressively; cap it at 1.
	wf, _ := repo.Figure1()
	o := soundness.NewOracle(wf)
	atomic := view.Atomic(wf)
	compacted, merges, err := Compact(o, atomic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if merges != 1 || compacted.N() != atomic.N()-1 {
		t.Fatalf("merges=%d composites=%d", merges, compacted.N())
	}
}
