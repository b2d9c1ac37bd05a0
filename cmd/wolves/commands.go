package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"wolves/internal/core"
	"wolves/internal/display"
	"wolves/internal/estimate"
	"wolves/internal/feedback"
	"wolves/internal/gen"
	"wolves/internal/moml"
	"wolves/internal/provenance"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// loadInputs reads a workflow (+ optional view) from MOML or JSON files.
func loadInputs(momlPath, wfPath, viewPath string) (*workflow.Workflow, *view.View, error) {
	switch {
	case momlPath != "" && wfPath != "":
		return nil, nil, errors.New("give either -moml or -workflow, not both")
	case momlPath != "":
		f, err := os.Open(momlPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		doc, err := moml.Decode(f)
		if err != nil {
			return nil, nil, err
		}
		return doc.Workflow, doc.View, nil
	case wfPath != "":
		f, err := os.Open(wfPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		wf, err := workflow.DecodeJSON(f)
		if err != nil {
			return nil, nil, err
		}
		var v *view.View
		if viewPath != "" {
			vf, err := os.Open(viewPath)
			if err != nil {
				return nil, nil, err
			}
			defer vf.Close()
			v, err = view.DecodeJSON(wf, vf)
			if err != nil {
				return nil, nil, err
			}
		}
		return wf, v, nil
	default:
		return nil, nil, errors.New("no input: use -moml or -workflow")
	}
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	var in inputFlags
	in.register(fs)
	paths := fs.Bool("paths", false, "also run the direct Definition-2.1 path check")
	fs.Parse(args)
	wf, v, err := in.load(true)
	if err != nil {
		return err
	}
	eng := newEngine()
	o := eng.Oracle(wf)
	if err := display.Summary(os.Stdout, o, v); err != nil {
		return err
	}
	if *paths {
		prep := soundness.ValidateViewPaths(o, v)
		fmt.Printf("definition-2.1 path check: sound=%v false-paths=%d\n",
			prep.Sound, len(prep.FalsePaths))
	}
	return reportSound(eng, wf, v)
}

func cmdCorrect(args []string) error {
	fs := flag.NewFlagSet("correct", flag.ExitOnError)
	var in inputFlags
	in.register(fs)
	crit := fs.String("criterion", "strong", "weak|strong|strong-audited|optimal")
	out := fs.String("out", "", "write the corrected view as JSON to this file")
	mergeUp := fs.Bool("merge-up", false, "correct by merging composites instead of splitting")
	timeout := fs.Duration("timeout", 0, "abort the correction after this long (0 = no bound)")
	fs.Parse(args)
	wf, v, err := in.load(true)
	if err != nil {
		return err
	}
	eng := newEngine()
	o := eng.Oracle(wf)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var corrected *view.View
	if *mergeUp {
		if *timeout > 0 {
			// MergeUp has no cancellation path yet; silently ignoring the
			// flag would promise a bound that does not exist.
			return errors.New("-timeout is not supported with -merge-up")
		}
		res, err := core.MergeUp(o, v)
		if err != nil {
			return err
		}
		corrected = res.Corrected
		fmt.Printf("merge-up: %d → %d composites (%d merges, %v)\n",
			res.CompositesBefore, res.CompositesAfter, res.Merges, res.Elapsed.Round(1000))
	} else {
		c, err := parseCriterionFlag(*crit)
		if err != nil {
			return err
		}
		vc, err := eng.CorrectWithOracle(ctx, o, v, c, nil)
		if err != nil {
			return err
		}
		corrected = vc.Corrected
		fmt.Printf("%s: %d → %d composites in %v\n",
			c, vc.CompositesBefore, vc.CompositesAfter, vc.Elapsed.Round(1000))
		for _, tc := range vc.Tasks {
			fmt.Printf("  split %s: %d tasks → %d sound blocks (checks=%d merges=%d)\n",
				tc.CompositeID, tc.Before, tc.After,
				tc.Result.Stats.SoundChecks, tc.Result.Stats.Merges)
		}
	}
	if err := display.Summary(os.Stdout, o, corrected); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := corrected.EncodeJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdLineage(args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ExitOnError)
	var in inputFlags
	in.register(fs)
	task := fs.String("task", "", "task ID to query")
	fs.Parse(args)
	if *task == "" {
		return errors.New("need -task")
	}
	wf, v, err := in.load(false)
	if err != nil {
		return err
	}
	e := provenance.NewEngine(wf)
	if err := display.Dependencies(os.Stdout, e, *task); err != nil {
		return err
	}
	if v != nil {
		ti, _ := wf.Index(*task)
		ve := provenance.NewViewEngine(v)
		var ids []string
		for _, t := range ve.TaskLineage(ti) {
			ids = append(ids, wf.Task(t).ID)
		}
		fmt.Printf("  view answer : {%s}\n", strings.Join(ids, ", "))
		audit := provenance.Audit(v)
		fmt.Printf("  view audit  : false pairs=%d precision=%.2f\n",
			audit.FalsePairs, audit.Precision)
	}
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	var in inputFlags
	in.register(fs)
	of := fs.String("of", "workflow", "workflow|view")
	fs.Parse(args)
	wf, v, err := in.load(*of == "view")
	if err != nil {
		return err
	}
	var opts *display.Options
	if v != nil {
		o := soundness.NewOracle(wf)
		opts = &display.Options{Report: soundness.ValidateView(o, v)}
	}
	switch *of {
	case "workflow":
		return display.WorkflowDOT(os.Stdout, wf, v, opts)
	case "view":
		return display.ViewDOT(os.Stdout, v, opts)
	default:
		return fmt.Errorf("unknown -of %q", *of)
	}
}

func cmdRepo(args []string) error {
	if len(args) < 1 {
		return errors.New("usage: wolves repo list|show|audit [key]")
	}
	switch args[0] {
	case "list":
		for _, e := range repo.Catalog() {
			fmt.Printf("%-22s %-18s %2d tasks  %d views  %s\n",
				e.Key, e.Source, e.Workflow.N(), len(e.Views), e.Title)
		}
		return nil
	case "show":
		if len(args) < 2 {
			return errors.New("usage: wolves repo show <key>")
		}
		e, err := repo.Get(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s — %s\n%s\nsource: %s, domain: %s\n\n",
			e.Key, e.Title, e.Notes, e.Source, e.Domain)
		o := soundness.NewOracle(e.Workflow)
		for _, vs := range e.Views {
			if err := display.Summary(os.Stdout, o, vs.View); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "audit":
		total, unsound := 0, 0
		for _, e := range repo.Catalog() {
			o := soundness.NewOracle(e.Workflow)
			for _, vs := range e.Views {
				rep := soundness.ValidateView(o, vs.View)
				total++
				status := "sound"
				if !rep.Sound {
					unsound++
					status = fmt.Sprintf("UNSOUND (%d composites)", len(rep.Unsound))
				}
				fmt.Printf("%-22s %-24s %s\n", e.Key, vs.View.Name(), status)
			}
		}
		fmt.Printf("\n%d of %d views unsound\n", unsound, total)
		return nil
	default:
		return fmt.Errorf("unknown repo subcommand %q", args[0])
	}
}

func cmdSession(args []string) error {
	fs := flag.NewFlagSet("session", flag.ExitOnError)
	var in inputFlags
	in.register(fs)
	script := fs.String("script", "", "session script file ('-' for stdin)")
	fs.Parse(args)
	if *script == "" {
		return errors.New("need -script")
	}
	wf, v, err := in.load(true)
	if err != nil {
		return err
	}
	s, err := feedback.NewSessionWith(newEngine(), wf, v)
	if err != nil {
		return err
	}
	src := os.Stdin
	if *script != "-" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	return s.RunScript(context.Background(), src, os.Stdout)
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	n := fs.Int("n", 12, "composite size to estimate for")
	edges := fs.Int("edges", 14, "edges inside the composite")
	crit := fs.String("criterion", "strong", "criterion to estimate")
	hist := fs.String("history", "", "history JSON (read, and written with -train)")
	train := fs.Bool("train", false, "train on a generated corpus before predicting")
	fs.Parse(args)
	est := estimate.New()
	if *hist != "" {
		if f, err := os.Open(*hist); err == nil {
			defer f.Close()
			if err := est.Load(f); err != nil {
				return err
			}
		}
	}
	if *train {
		ctx := context.Background()
		for _, size := range []int{6, 8, 10, 12, 14, 16} {
			for seed := int64(0); seed < 4; seed++ {
				wf, members := gen.UnsoundTask(size, seed)
				o := soundness.NewOracle(wf)
				inner := countInnerEdges(wf, members)
				opt, err := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil)
				if err != nil {
					return err
				}
				for _, c := range []core.Criterion{core.Weak, core.Strong, core.Optimal} {
					res, err := core.SplitTaskCtx(ctx, o, members, c, nil)
					if err != nil {
						return err
					}
					est.Record(size, inner, c.String(), res.Stats.Elapsed,
						core.Quality(len(opt.Blocks), len(res.Blocks)))
				}
			}
		}
		if *hist != "" {
			f, err := os.Create(*hist)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := est.Save(f); err != nil {
				return err
			}
			fmt.Printf("history written to %s\n", *hist)
		}
	}
	c, err := parseCriterionFlag(*crit)
	if err != nil {
		return err
	}
	pred, ok := est.Predict(*n, *edges, c.String())
	if !ok {
		return fmt.Errorf("no history for this group (size=%d edges=%d); run with -train", *n, *edges)
	}
	fmt.Printf("group %+v, %s: est. time %v, est. quality %.2f (%d samples)\n",
		estimate.Classify(*n, *edges), c, pred.AvgTime, pred.AvgQuality, pred.Samples)
	return nil
}

func countInnerEdges(wf *workflow.Workflow, members []int) int {
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

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	var in inputFlags
	in.register(fs)
	to := fs.String("to", "", "json|moml")
	fs.Parse(args)
	wf, v, err := in.load(false)
	if err != nil {
		return err
	}
	switch *to {
	case "json":
		if err := wf.EncodeJSON(os.Stdout); err != nil {
			return err
		}
		if v != nil {
			return v.EncodeJSON(os.Stdout)
		}
		return nil
	case "moml":
		return moml.Encode(os.Stdout, wf, v)
	default:
		return fmt.Errorf("unknown -to %q (want json|moml)", *to)
	}
}
