package wolves_test

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"wolves"
)

func reportsIdentical(t *testing.T, name string, seq, par *wolves.Report) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s: parallel validation diverges from sequential", name)
	}
	sb, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(sb) != string(pb) {
		t.Fatalf("%s: reports not byte-identical\nseq: %s\npar: %s", name, sb, pb)
	}
}

// validateWith validates v against o on an engine of the given width
// (0 = GOMAXPROCS, 1 = sequential).
func validateWith(t *testing.T, workers int, o *wolves.Oracle, v *wolves.View) *wolves.Report {
	t.Helper()
	rep, err := wolves.NewEngine(wolves.WithWorkers(workers)).ValidateWithOracle(context.Background(), o, v)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestValidateParallelRepositoryCatalog pins parallel validation to the
// sequential one across every view of the full repository catalog.
func TestValidateParallelRepositoryCatalog(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, e := range wolves.Repository() {
		o := wolves.NewEngine().Oracle(e.Workflow)
		for _, vs := range e.Views {
			seq := validateWith(t, 1, o, vs.View)
			if seq.Sound != vs.WantSound {
				t.Fatalf("%s/%s: catalog expectation drifted", e.Workflow.Name(), vs.View.Name())
			}
			for _, workers := range []int{0, 2, 5} {
				reportsIdentical(t, e.Workflow.Name()+"/"+vs.View.Name(),
					seq, validateWith(t, workers, o, vs.View))
			}
		}
	}
}

// TestValidateParallelRandomizedLayered pins the equivalence on
// randomized GenLayered workflows across view shapes and sizes.
func TestValidateParallelRandomizedLayered(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for seed := int64(0); seed < 6; seed++ {
		wf := wolves.GenLayered(wolves.LayeredConfig{
			Name: "rand", Tasks: 80 + 16*int(seed), Layers: 8,
			EdgeProb: 0.3, SkipProb: 0.05, Seed: seed,
		})
		o := wolves.NewEngine().Oracle(wf)
		views := []*wolves.View{
			wolves.GenIntervalView(wf, 10, "bands"),
			wolves.GenRandomView(wf, 9, seed, "rand"),
			wolves.AtomicView(wf),
		}
		for _, v := range views {
			seq := validateWith(t, 1, o, v)
			for _, workers := range []int{0, 3, 16} {
				reportsIdentical(t, v.Name(), seq, validateWith(t, workers, o, v))
			}
		}
	}
}
