package soundness

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// mustJSON renders a report for byte-level comparison: the acceptance
// bar is byte-identical reports, not merely semantically equal ones.
func mustJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func requireSameReport(t *testing.T, name string, seq, par *Report) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s: parallel report diverges from sequential\nseq: %+v\npar: %+v", name, seq, par)
	}
	sb, pb := mustJSON(t, seq), mustJSON(t, par)
	if string(sb) != string(pb) {
		t.Fatalf("%s: reports not byte-identical\nseq: %s\npar: %s", name, sb, pb)
	}
}

// TestValidateViewParallelEquivalence is the table-driven pin of
// ValidateViewParallel to ValidateView across fixture and generated
// workloads, at several worker counts including ones that force the
// worker-pool path.
func TestValidateViewParallelEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	type caseSpec struct {
		name string
		wf   *workflow.Workflow
		v    *view.View
	}
	var cases []caseSpec

	// Fixture: the chainPair workflow under its atomic and a coarse view.
	cp := chainPair(t)
	coarse, err := view.FromAssignments(cp, "coarse", map[string][]string{
		"left": {"x", "a"}, "mid": {"b", "z"}, "right": {"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		caseSpec{"chainPair/atomic", cp, view.Atomic(cp)},
		caseSpec{"chainPair/coarse", cp, coarse},
	)

	// Generated: layered workflows under interval, random and unsound-
	// injected views (mixed sound/unsound composites, k ≥ threshold).
	for _, seed := range []int64{1, 2, 3} {
		wf := gen.Layered(gen.LayeredConfig{
			Name: "lay", Tasks: 96, Layers: 8, EdgeProb: 0.35, SkipProb: 0.08, Seed: seed,
		})
		iv := gen.IntervalView(wf, 12, "bands")
		cases = append(cases,
			caseSpec{"layered/interval", wf, iv},
			caseSpec{"layered/random", wf, gen.RandomView(wf, 10, seed, "rand")},
			caseSpec{"layered/injected", wf, gen.InjectUnsound(iv, 3, seed)},
		)
	}

	for _, c := range cases {
		o := NewOracle(c.wf)
		seq := ValidateView(o, c.v)
		for _, workers := range []int{0, 1, 2, 3, 8, 64} {
			par := ValidateViewParallel(o, c.v, workers)
			requireSameReport(t, c.name, seq, par)
		}
	}
}

// TestValidateViewEmptyInterfaceShape pins the report shape for
// composites with empty interface sets: In/Out must stay nil (not empty
// non-nil slices), matching the historical output and NaiveValidator.
func TestValidateViewEmptyInterfaceShape(t *testing.T) {
	wf := chainPair(t)
	whole, err := view.FromAssignments(wf, "whole", map[string][]string{
		"all": {"x", "a", "b", "y", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(wf)
	rep := ValidateView(o, whole)
	if !rep.Sound {
		t.Fatal("the whole-workflow composite is trivially sound")
	}
	cr := rep.Composites[0]
	if cr.In != nil || cr.Out != nil {
		t.Fatalf("empty interface sets must be nil, got In=%#v Out=%#v", cr.In, cr.Out)
	}
	nrep, err := NewNaiveValidator(o, 1_000_000).ValidateView(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, nrep) {
		t.Fatalf("ValidateView and NaiveValidator reports diverge:\nfast:  %+v\nnaive: %+v", rep, nrep)
	}
}

// TestValidateViewParallelConcurrentOracle hammers one oracle from many
// goroutines (the documented concurrent-reader guarantee now extends to
// the pooled scratch state).
func TestValidateViewParallelConcurrentOracle(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	wf := gen.Layered(gen.LayeredConfig{
		Name: "lay", Tasks: 64, Layers: 8, EdgeProb: 0.4, SkipProb: 0.1, Seed: 9,
	})
	o := NewOracle(wf)
	v := gen.IntervalView(wf, 16, "bands")
	seq := ValidateView(o, v)
	done := make(chan *Report, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- ValidateViewParallel(o, v, 4) }()
	}
	for i := 0; i < 8; i++ {
		requireSameReport(t, "concurrent", seq, <-done)
	}
}

// TestReportSlicesAreCapacityLimited: a full report carves every
// composite's In and Out from one array and its violations from
// another, so appending to one composite's slices — past their
// capacity — must never overwrite a neighbour's.
func TestReportSlicesAreCapacityLimited(t *testing.T) {
	wf := gen.Layered(gen.LayeredConfig{Name: "caps", Tasks: 400, Layers: 10, EdgeProb: 0.08, Seed: 3})
	v := gen.InjectUnsound(gen.IntervalView(wf, 40, "caps"), 8, 3)
	o := NewOracle(wf)
	for _, workers := range []int{1, 4} {
		rep, err := ValidateViewParallelCtx(context.Background(), o, v, workers)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sound {
			t.Fatal("the injected view must be unsound")
		}
		want := mustJSON(t, rep)
		lens := make([][3]int, len(rep.Composites))
		for ci := range rep.Composites {
			cr := &rep.Composites[ci]
			lens[ci] = [3]int{len(cr.In), len(cr.Out), len(cr.Violations)}
			for c := cap(cr.In); len(cr.In) <= c; {
				cr.In = append(cr.In, -1)
			}
			for c := cap(cr.Out); len(cr.Out) <= c; {
				cr.Out = append(cr.Out, -1)
			}
			for c := cap(cr.Violations); len(cr.Violations) <= c; {
				cr.Violations = append(cr.Violations, Violation{From: -1, To: -1})
			}
		}
		for ci := range rep.Composites {
			cr := &rep.Composites[ci]
			if lens[ci][0] == 0 {
				cr.In = nil
			} else {
				cr.In = cr.In[:lens[ci][0]]
			}
			if lens[ci][1] == 0 {
				cr.Out = nil
			} else {
				cr.Out = cr.Out[:lens[ci][1]]
			}
			if lens[ci][2] == 0 {
				cr.Violations = nil
			} else {
				cr.Violations = cr.Violations[:lens[ci][2]]
			}
		}
		if got := mustJSON(t, rep); string(got) != string(want) {
			t.Fatalf("workers=%d: appending to one composite's slices changed another's\nwant %s\ngot  %s", workers, want, got)
		}
	}
}
