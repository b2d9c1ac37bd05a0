// View designer: soundness diagnosis while a view is being designed —
// the demo's interactive feedback loop (Figure 2) in scripted form.
//
// Starting from a sound per-arm view of an ML training workflow, the
// user "simplifies" it by merging the model arm with the baseline arm
// (Create Composite Task). WOLVES flags the merge as unsound with a
// witness, the estimator (§3.2) advises which corrector to use, the
// chosen corrector repairs the view, and the user accepts.
package main

import (
	"context"
	"fmt"
	"log"

	"wolves"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	entry, err := wolves.RepositoryGet("ml-training")
	if err != nil {
		log.Fatal(err)
	}
	wf := entry.Workflow

	// The sound expert view: one composite per training arm.
	var start *wolves.View
	for _, vs := range entry.Views {
		if vs.View.Name() == "ml-per-arm" {
			start = vs.View
		}
	}
	if start == nil {
		log.Fatal("ml-per-arm view missing from the repository")
	}

	// Also show what an automatic constructor would produce.
	auto, err := wolves.GenBitonStyleView(wf, []string{"eval_model", "eval_baseline"}, "auto")
	if err != nil {
		log.Fatal(err)
	}
	eng := wolves.NewEngine()
	autoRep, err := eng.Validate(ctx, wf, auto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Biton-style auto view: %d composites, sound=%v\n\n", auto.N(), autoRep.Sound)

	session, err := wolves.NewSession(wf, start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("starting view (%d composites):\n%s\n", start.N(), start.Describe())
	report, err := session.ValidateCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validator: sound=%v\n\n", report.Sound)

	// The user merges both arms "to declutter the display".
	if err := session.MergeTasks("training", "model", "baseline"); err != nil {
		log.Fatal(err)
	}
	if report, err = session.ValidateCtx(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after merging model+baseline: sound=%v\n", report.Sound)
	for _, ci := range report.Unsound {
		cr := report.Composites[ci]
		fmt.Printf("  composite %q: %s\n", cr.ID,
			wolves.DescribeViolation(wf, cr.Violations[0]))
	}

	// Estimator advice before choosing a corrector.
	est := wolves.NewEstimator()
	trainEstimator(ctx, eng, est)
	ci := report.Unsound[0]
	comp := session.Current().Composite(ci)
	inner := innerEdges(wf, comp.Members())
	fmt.Printf("\nestimates for splitting %q (%d tasks, %d inner edges):\n",
		comp.ID, comp.Size(), inner)
	for _, crit := range []wolves.Criterion{wolves.Weak, wolves.Strong, wolves.Optimal} {
		if pred, ok := est.Predict(comp.Size(), inner, crit.String()); ok {
			fmt.Printf("  %-28s time≈%-12v quality≈%.2f (%d samples)\n",
				crit, pred.AvgTime, pred.AvgQuality, pred.Samples)
		}
	}

	// Split just that composite with the strong corrector, then accept.
	res, err := session.SplitTaskCtx(ctx, "training", wolves.Strong, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsplit %q into %d sound blocks\n", comp.ID, len(res.Blocks))
	final, err := session.ValidateCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	session.Accept()
	fmt.Printf("final: sound=%v, %d composites:\n%s",
		final.Sound, session.Current().N(), session.Current().Describe())
}

// trainEstimator seeds the estimator with a small generated corpus.
func trainEstimator(ctx context.Context, eng *wolves.Engine, est *wolves.Estimator) {
	for _, n := range []int{4, 6, 8, 10} {
		for seed := int64(0); seed < 3; seed++ {
			wf, members := wolves.GenUnsoundTask(n, seed)
			inner := innerEdges(wf, members)
			opt, err := eng.SplitTask(ctx, wf, members, wolves.Optimal)
			if err != nil {
				log.Fatal(err)
			}
			for _, crit := range []wolves.Criterion{wolves.Weak, wolves.Strong, wolves.Optimal} {
				res, err := eng.SplitTask(ctx, wf, members, crit)
				if err != nil {
					log.Fatal(err)
				}
				est.Record(n, inner, crit.String(), res.Stats.Elapsed,
					wolves.Quality(len(opt.Blocks), len(res.Blocks)))
			}
		}
	}
}

func innerEdges(wf *wolves.Workflow, members []int) int {
	in := map[int]bool{}
	for _, m := range members {
		in[m] = true
	}
	edges := 0
	wf.Graph().Edges(func(u, v int) {
		if in[u] && in[v] {
			edges++
		}
	})
	return edges
}
