package repo

import (
	"context"
	"strings"
	"testing"

	"wolves/internal/core"
	"wolves/internal/soundness"
)

func TestCatalogExpectationsHold(t *testing.T) {
	entries := Catalog()
	if len(entries) != 10 {
		t.Fatalf("catalog has %d entries, want 10", len(entries))
	}
	unsoundViews := 0
	for _, e := range entries {
		if e.Key == "" || e.Workflow == nil || len(e.Views) == 0 {
			t.Fatalf("incomplete entry %+v", e)
		}
		o := soundness.NewOracle(e.Workflow)
		for _, vs := range e.Views {
			rep := soundness.ValidateView(o, vs.View)
			if rep.Sound != vs.WantSound {
				t.Errorf("%s/%s: sound=%v, fixture expects %v (unsound: %v)",
					e.Key, vs.View.Name(), rep.Sound, vs.WantSound, rep.Unsound)
			}
			if !vs.WantSound {
				unsoundViews++
			}
		}
	}
	// The paper's survey finding: the repository does contain unsound views.
	if unsoundViews < 5 {
		t.Fatalf("only %d unsound views; fixtures should mirror the survey", unsoundViews)
	}
}

func TestCatalogViewsAreCorrectable(t *testing.T) {
	for _, e := range Catalog() {
		o := soundness.NewOracle(e.Workflow)
		for _, vs := range e.Views {
			if vs.WantSound {
				continue
			}
			vc, err := core.CorrectViewCtx(context.Background(), o, vs.View, core.Strong, nil, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Key, vs.View.Name(), err)
			}
			if rep := soundness.ValidateView(o, vc.Corrected); !rep.Sound {
				t.Fatalf("%s/%s: corrected view still unsound", e.Key, vs.View.Name())
			}
			if vc.CompositesAfter <= vc.CompositesBefore {
				t.Fatalf("%s/%s: splitting must increase composite count", e.Key, vs.View.Name())
			}
		}
	}
}

func TestGetAndKeys(t *testing.T) {
	keys := Keys()
	if len(keys) != 10 {
		t.Fatalf("keys = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
	e, err := Get("phylogenomics")
	if err != nil || e.Title == "" {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	if _, err := Get("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("missing-key error = %v", err)
	}
}

func TestFigure3FixtureShape(t *testing.T) {
	f := Figure3()
	if f.Workflow.N() != 20 {
		t.Fatalf("fig3 workflow N = %d, want 20 (12 members + 8 context)", f.Workflow.N())
	}
	if len(f.T) != 12 {
		t.Fatalf("fig3 T has %d members", len(f.T))
	}
	if f.View.N() != 9 {
		t.Fatalf("fig3 view composites = %d, want 9", f.View.N())
	}
	comp, ok := f.View.CompositeByID("T")
	if !ok || comp.Size() != 12 {
		t.Fatalf("composite T = %+v", comp)
	}
}

func TestFigure1FixtureShape(t *testing.T) {
	wf, v := Figure1()
	if wf.N() != 12 || wf.M() != 12 {
		t.Fatalf("fig1 workflow: %v", wf)
	}
	if v.N() != 7 {
		t.Fatalf("fig1 view composites = %d, want 7 (13..19)", v.N())
	}
	// The view graph is exactly the one described in the paper.
	q := v.Graph()
	idx := func(id string) int {
		i, ok := v.CompIndex(id)
		if !ok {
			t.Fatalf("composite %q missing", id)
		}
		return i
	}
	wantEdges := [][2]string{
		{"13", "14"}, {"13", "15"}, {"14", "16"}, {"15", "16"},
		{"16", "17"}, {"16", "18"}, {"17", "19"}, {"18", "19"},
	}
	if q.M() != len(wantEdges) {
		t.Fatalf("view graph has %d edges, want %d", q.M(), len(wantEdges))
	}
	for _, e := range wantEdges {
		if !q.HasEdge(idx(e[0]), idx(e[1])) {
			t.Fatalf("view graph missing edge %v", e)
		}
	}
}
