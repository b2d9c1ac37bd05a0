// Benchmarks mapping one-to-one onto the experiment index of DESIGN.md
// §3 (E1–E9, A1–A2; the A3 reachability ablation lives in internal/dag).
// Run with:
//
//	go test -bench=. -benchmem
//
// The wolvestables command prints the corresponding tables with derived
// quantities (quality ratios, speedups); EXPERIMENTS.md records both.
package wolves_test

import (
	"context"
	"fmt"
	"testing"

	"wolves"
	"wolves/internal/core"
	"wolves/internal/soundness"
)

// benchEng runs the benchmarks that hold their own oracle through the
// Engine's oracle-level methods (ValidateWithOracle, CorrectWithOracle,
// SplitWithOracle); benchCtx is their root context.
var (
	benchEng = wolves.NewEngine()
	benchCtx = context.Background()
)

// --- E1: Figure 1 case study -------------------------------------------------

func BenchmarkE1Figure1Validate(b *testing.B) {
	wf, v := wolves.Figure1()
	o := benchEng.Oracle(wf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := benchEng.ValidateWithOracle(benchCtx, o, v)
		if err != nil || rep.Sound {
			b.Fatal("fig1 view must be unsound", err)
		}
	}
}

func BenchmarkE1Figure1Correct(b *testing.B) {
	wf, v := wolves.Figure1()
	o := benchEng.Oracle(wf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchEng.CorrectWithOracle(benchCtx, o, v, wolves.Strong, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Figure 3 running example ---------------------------------------------

func BenchmarkE2Figure3(b *testing.B) {
	f := wolves.Figure3()
	o := benchEng.Oracle(f.Workflow)
	for _, crit := range []wolves.Criterion{wolves.Weak, wolves.Strong, wolves.Optimal} {
		b.Run(crit.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchEng.SplitWithOracle(benchCtx, o, f.T, crit, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3/E4: corrector sweep with optimal --------------------------------------

func BenchmarkE4Corrector(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		wf, members := wolves.GenUnsoundTask(n, 1)
		o := benchEng.Oracle(wf)
		for _, crit := range []wolves.Criterion{wolves.Weak, wolves.Strong, wolves.Optimal} {
			b.Run(fmt.Sprintf("%s/n=%d", crit, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := benchEng.SplitWithOracle(benchCtx, o, members, crit, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E5: weak vs strong at scale ------------------------------------------------

func BenchmarkE5CorrectorLarge(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		wf, members := wolves.GenUnsoundTask(n, 1)
		o := benchEng.Oracle(wf)
		for _, crit := range []wolves.Criterion{wolves.Weak, wolves.Strong} {
			b.Run(fmt.Sprintf("%s/n=%d", crit, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := benchEng.SplitWithOracle(benchCtx, o, members, crit, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E6: validator vs naive strawman ---------------------------------------------

func BenchmarkE6Validator(b *testing.B) {
	for _, n := range []int{16, 32} {
		wf := wolves.GenLayered(wolves.LayeredConfig{
			Name: "v", Tasks: n, Layers: n / 4, EdgeProb: 0.5, SkipProb: 0.1, Seed: 5,
		})
		o := benchEng.Oracle(wf)
		v := wolves.GenIntervalView(wf, n/4, "bands")
		b.Run(fmt.Sprintf("task-level/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchEng.ValidateWithOracle(benchCtx, o, v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("def21-paths/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wolves.ValidatePaths(o, v)
			}
		})
		b.Run(fmt.Sprintf("naive-enum/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nv := soundness.NewNaiveValidator(o, 100_000_000)
				if _, err := nv.ValidateView(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: provenance at workflow vs view level --------------------------------------

func BenchmarkE7Lineage(b *testing.B) {
	for _, n := range []int{256, 1024} {
		wf := wolves.GenLayered(wolves.LayeredConfig{
			Name: "p", Tasks: n, Layers: n / 8, EdgeProb: 0.3, SkipProb: 0.02, Seed: 3,
		})
		v := wolves.GenIntervalView(wf, n/16, "bands")
		b.Run(fmt.Sprintf("workflow/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := wolves.NewLineageEngine(wf)
				e.Lineage(n - 1)
			}
		})
		b.Run(fmt.Sprintf("view/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ve := wolves.NewViewLineageEngine(v)
				ve.CompositeLineage(v.N() - 1)
			}
		})
	}
}

// --- E8: repository survey ----------------------------------------------------------

func BenchmarkE8RepositoryAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unsound := 0
		for _, e := range wolves.Repository() {
			o := soundness.NewOracle(e.Workflow)
			for _, vs := range e.Views {
				rep, err := benchEng.ValidateWithOracle(benchCtx, o, vs.View)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Sound {
					unsound++
				}
			}
		}
		if unsound == 0 {
			b.Fatal("survey must find unsound views")
		}
	}
}

// --- E9: estimator ---------------------------------------------------------------------

func BenchmarkE9EstimatorPredict(b *testing.B) {
	est := wolves.NewEstimator()
	for seed := int64(0); seed < 8; seed++ {
		est.Record(12, 14, "strong-local-optimal", 1000, 0.95)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := est.Predict(12, 14, "strong-local-optimal"); !ok {
			b.Fatal("prediction must hit")
		}
	}
}

// --- A1: strong corrector phase ablation ---------------------------------------------------

func BenchmarkA1StrongPhases(b *testing.B) {
	wf, members := wolves.GenUnsoundTask(14, 1)
	o := benchEng.Oracle(wf)
	b.Run("pairs-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SplitTaskPhases(o, members, false, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("with-closures", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SplitTaskPhases(o, members, true, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-strong", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SplitTaskPhases(o, members, true, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A2: split vs merge-up correction -------------------------------------------------------

func BenchmarkA2SplitVsMergeUp(b *testing.B) {
	entry, err := wolves.RepositoryGet("climate-ensemble")
	if err != nil {
		b.Fatal(err)
	}
	var unsound *wolves.View
	o := benchEng.Oracle(entry.Workflow)
	for _, vs := range entry.Views {
		if !vs.WantSound {
			unsound = vs.View
		}
	}
	b.Run("split-strong", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchEng.CorrectWithOracle(benchCtx, o, unsound, wolves.Strong, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge-up", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wolves.MergeUp(o, unsound); err != nil {
				b.Fatal(err)
			}
		}
	})
}
