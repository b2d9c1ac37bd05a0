package core

import (
	"context"
	"math/rand"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
)

func TestMergeUpRepairsEveryRepositoryView(t *testing.T) {
	for _, e := range repo.Catalog() {
		o := soundness.NewOracle(e.Workflow)
		for _, vs := range e.Views {
			res, err := MergeUp(o, vs.View)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Key, vs.View.Name(), err)
			}
			if rep := soundness.ValidateView(o, res.Corrected); !rep.Sound {
				t.Fatalf("%s/%s: merge-up result unsound", e.Key, vs.View.Name())
			}
			if vs.WantSound {
				if res.Merges != 0 || res.CompositesAfter != res.CompositesBefore {
					t.Fatalf("%s/%s: sound view must be untouched: %+v", e.Key, vs.View.Name(), res)
				}
			} else {
				if res.Merges == 0 || res.CompositesAfter >= res.CompositesBefore {
					t.Fatalf("%s/%s: unsound view must shrink: %+v", e.Key, vs.View.Name(), res)
				}
			}
		}
	}
}

func TestMergeUpForeignView(t *testing.T) {
	wf, _ := repo.Figure1()
	f3 := repo.Figure3()
	o := soundness.NewOracle(wf)
	if _, err := MergeUp(o, f3.View); err == nil {
		t.Fatal("foreign view must error")
	}
}

func TestMergeUpRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 40; c++ {
		wf, _ := randomCase(rng, 10)
		o := soundness.NewOracle(wf)
		k := 1 + rng.Intn(wf.N())
		part := make([]int, wf.N())
		for i := 0; i < k; i++ {
			part[i] = i
		}
		for i := k; i < wf.N(); i++ {
			part[i] = rng.Intn(k)
		}
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		v, err := view.FromPartition(wf, "rv", part)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MergeUp(o, v)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if rep := soundness.ValidateView(o, res.Corrected); !rep.Sound {
			t.Fatalf("case %d: unsound after merge-up", c)
		}
	}
}

func TestSplitTaskPhasesDegenerateAndFull(t *testing.T) {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	// pairs-only equals the weak corrector.
	weak, err := SplitTaskCtx(context.Background(), o, f.T, Weak, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := SplitTaskPhases(o, f.T, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Blocks) != len(weak.Blocks) {
		t.Fatalf("pairs-only = %d blocks, weak = %d", len(p1.Blocks), len(weak.Blocks))
	}
	// full strong equals the strong corrector.
	strong, err := SplitTaskCtx(context.Background(), o, f.T, Strong, nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := SplitTaskPhases(o, f.T, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p3.Blocks) != len(strong.Blocks) {
		t.Fatalf("full phases = %d blocks, strong = %d", len(p3.Blocks), len(strong.Blocks))
	}
	if err := CheckSplit(o, f.T, p3.Blocks); err != nil {
		t.Fatal(err)
	}
	if _, err := SplitTaskPhases(o, nil, true, true); err == nil {
		t.Fatal("empty members must error")
	}
}

func TestBicliquePhaseGap(t *testing.T) {
	// The seeded phase is what closes the biclique gap.
	wf, members := gen.BicliqueTask(3)
	o := soundness.NewOracle(wf)
	noSeed, err := SplitTaskPhases(o, members, true, false)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := SplitTaskPhases(o, members, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(noSeed.Blocks) != 10 || len(seeded.Blocks) != 5 {
		t.Fatalf("phase gap wrong: %d vs %d", len(noSeed.Blocks), len(seeded.Blocks))
	}
}

func TestCheckSplitRejectsBadSplits(t *testing.T) {
	wf, _ := repo.Figure1()
	o := soundness.NewOracle(wf)
	t4, t5, t7 := wf.MustIndex("4"), wf.MustIndex("5"), wf.MustIndex("7")
	members := []int{t4, t7}
	cases := map[string][][]int{
		"empty block":   {{t4}, {}, {t7}},
		"foreign task":  {{t4}, {t7}, {t5}},
		"duplicate":     {{t4}, {t4, t7}},
		"missing task":  {{t4}},
		"unsound block": {{t4, t7}},
	}
	for name, blocks := range cases {
		if err := CheckSplit(o, members, blocks); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if err := CheckSplit(o, members, [][]int{{t4}, {t7}}); err != nil {
		t.Errorf("valid split rejected: %v", err)
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions()
	if opts.OptimalLimit != 20 || opts.AuditLimit != 22 {
		t.Fatalf("defaults = %+v", opts)
	}
	// Zero values fall back to documented defaults.
	var zero *Options
	eff := zero.withDefaults()
	if eff.OptimalLimit != 20 || eff.AuditLimit != 22 {
		t.Fatalf("withDefaults(nil) = %+v", eff)
	}
	eff = (&Options{OptimalLimit: 5}).withDefaults()
	if eff.OptimalLimit != 5 || eff.AuditLimit != 22 {
		t.Fatalf("partial override = %+v", eff)
	}
}
