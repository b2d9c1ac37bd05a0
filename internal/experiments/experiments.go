package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"wolves/internal/core"
	"wolves/internal/estimate"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/repo"
	"wolves/internal/soundness"
)

// All runs every experiment in order. fast trims the sweeps (used by the
// test suite); the full harness takes a couple of minutes. The
// correctors observe ctx.
func All(ctx context.Context, fast bool) []*Table {
	return []*Table{
		E1Figure1(ctx),
		E2Figure3(ctx),
		E3Quality(ctx, fast),
		E4Runtime(ctx, fast),
		E5StrongVsWeak(ctx, fast),
		E6Validator(fast),
		E7Provenance(fast),
		E8Survey(),
		E9Estimator(ctx, fast),
		A1Phases(ctx, fast),
		A2MergeVsSplit(ctx),
	}
}

// ByID returns the experiment with the given id (case-insensitive).
func ByID(ctx context.Context, id string, fast bool) (*Table, error) {
	switch strings.ToLower(id) {
	case "e1":
		return E1Figure1(ctx), nil
	case "e2":
		return E2Figure3(ctx), nil
	case "e3":
		return E3Quality(ctx, fast), nil
	case "e4":
		return E4Runtime(ctx, fast), nil
	case "e5":
		return E5StrongVsWeak(ctx, fast), nil
	case "e6":
		return E6Validator(fast), nil
	case "e7":
		return E7Provenance(fast), nil
	case "e8":
		return E8Survey(), nil
	case "e9":
		return E9Estimator(ctx, fast), nil
	case "a1":
		return A1Phases(ctx, fast), nil
	case "a2":
		return A2MergeVsSplit(ctx), nil
	}
	return nil, fmt.Errorf("experiments: unknown id %q (e1..e9, a1, a2)", id)
}

// E1Figure1 reproduces the Figure 1 case study: detection, witness,
// spurious provenance, correction.
func E1Figure1(ctx context.Context) *Table {
	wf, v := repo.Figure1()
	o := soundness.NewOracle(wf)
	rep := soundness.ValidateView(o, v)
	t := &Table{
		ID:      "E1",
		Title:   "Figure 1 phylogenomics case study",
		Claim:   "view composite (16) is unsound (4 ∈ in cannot reach 7 ∈ out); provenance of (18) wrongly includes (14); correction repairs it",
		Columns: []string{"check", "result"},
	}
	add := func(k, val string) { t.Rows = append(t.Rows, []string{k, val}) }

	add("view sound?", fmt.Sprintf("%v", rep.Sound))
	var unsoundIDs []string
	for _, ci := range rep.Unsound {
		unsoundIDs = append(unsoundIDs, v.Composite(ci).ID)
	}
	add("unsound composites", strings.Join(unsoundIDs, ","))
	if len(rep.Unsound) > 0 {
		viol := rep.Composites[rep.Unsound[0]].Violations[0]
		add("witness", soundness.DescribeViolation(wf, viol))
	}
	ve := provenance.NewViewEngine(v)
	t18, _ := v.CompIndex("18")
	var anc []string
	for _, c := range ve.CompositeLineage(t18) {
		anc = append(anc, v.Composite(c).ID)
	}
	add("view provenance of (18)", strings.Join(anc, ","))
	audit := provenance.Audit(v)
	add("false provenance pairs", itoa(audit.FalsePairs))
	add("provenance precision", f2(audit.Precision))

	vc, err := core.CorrectViewCtx(ctx, o, v, core.Strong, nil, 0)
	if err != nil {
		panic(err)
	}
	add("corrected composites", fmt.Sprintf("%d → %d", vc.CompositesBefore, vc.CompositesAfter))
	audit2 := provenance.Audit(vc.Corrected)
	add("false pairs after correction", itoa(audit2.FalsePairs))
	ve2 := provenance.NewViewEngine(vc.Corrected)
	c18, _ := vc.Corrected.CompIndex("18")
	anc = anc[:0]
	for _, c := range ve2.CompositeLineage(c18) {
		anc = append(anc, vc.Corrected.Composite(c).ID)
	}
	add("corrected provenance of (18)", strings.Join(anc, ","))
	return t
}

// E2Figure3 reproduces the running example: weak = 8 blocks, strong = 5.
func E2Figure3(ctx context.Context) *Table {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	t := &Table{
		ID:      "E2",
		Title:   "Figure 3 running example",
		Claim:   "(b) splits the unsound task into 8 composite tasks, (c) into 5; {c,d,f,g} merges soundly; {f,g} does not (g ∈ in cannot reach f ∈ out)",
		Columns: []string{"corrector", "blocks", "split"},
	}
	describe := func(blocks [][]int) string {
		var parts []string
		for _, blk := range blocks {
			var ids []string
			for _, x := range blk {
				ids = append(ids, f.Workflow.Task(x).ID)
			}
			parts = append(parts, "{"+strings.Join(ids, ",")+"}")
		}
		return strings.Join(parts, " ")
	}
	for _, crit := range []core.Criterion{core.Weak, core.Strong, core.Optimal} {
		res, err := core.SplitTaskCtx(ctx, o, f.T, crit, nil)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{crit.String(), itoa(len(res.Blocks)), describe(res.Blocks)})
	}
	fg := []int{f.Workflow.MustIndex("f"), f.Workflow.MustIndex("g")}
	okFG, _ := o.SoundSlice(fg)
	gReachesF := o.Reach().Reaches(f.Workflow.MustIndex("g"), f.Workflow.MustIndex("f"))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"merge {f,g} sound? %v (paper witness: path g→f exists? %v — \"no path from g ∈ T.in to f ∈ T.out\")",
		okFG, gReachesF))
	cdfg := []int{f.Workflow.MustIndex("c"), f.Workflow.MustIndex("d"),
		f.Workflow.MustIndex("f"), f.Workflow.MustIndex("g")}
	okCDFG, _ := o.SoundSlice(cdfg)
	t.Notes = append(t.Notes, fmt.Sprintf("merge {c,d,f,g} sound? %v", okCDFG))
	return t
}

// E3Quality measures the paper's quality ratio (optimal blocks / blocks)
// for the weak and strong correctors across workload suites.
func E3Quality(ctx context.Context, fast bool) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Correction quality vs the optimal corrector",
		Claim:   "the strongly local optimal corrector is often able to produce views with similar quality to the one produced by the optimal corrector",
		Columns: []string{"suite", "n", "weak", "strong", "optimal", "q(weak)", "q(strong)"},
	}
	sizes := []int{8, 10, 12, 14, 16}
	seeds := []int64{1, 2, 3}
	if fast {
		sizes = []int{8, 10}
		seeds = []int64{1}
	}
	for _, n := range sizes {
		sumW, sumS, sumO := 0, 0, 0
		for _, seed := range seeds {
			wf, members := gen.UnsoundTask(n, seed)
			o := soundness.NewOracle(wf)
			w, _ := core.SplitTaskCtx(ctx, o, members, core.Weak, nil)
			s, _ := core.SplitTaskCtx(ctx, o, members, core.Strong, nil)
			opt, err := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil)
			if err != nil {
				panic(err)
			}
			sumW += len(w.Blocks)
			sumS += len(s.Blocks)
			sumO += len(opt.Blocks)
		}
		t.Rows = append(t.Rows, []string{
			"gen-unsound", itoa(n),
			f2(float64(sumW) / float64(len(seeds))),
			f2(float64(sumS) / float64(len(seeds))),
			f2(float64(sumO) / float64(len(seeds))),
			f2(core.Quality(sumO, sumW)),
			f2(core.Quality(sumO, sumS)),
		})
	}
	// The Figure 3 biclique family, scaled: the structural worst case
	// for the weak corrector.
	bics := []int{2, 3, 4, 5}
	if fast {
		bics = bics[:2]
	}
	for _, k := range bics {
		wf, members := gen.BicliqueTask(k)
		o := soundness.NewOracle(wf)
		w, _ := core.SplitTaskCtx(ctx, o, members, core.Weak, nil)
		s, _ := core.SplitTaskCtx(ctx, o, members, core.Strong, nil)
		optBlocks := 5 // proven by the family's construction; DP confirms up to n=18
		if len(members) <= 18 {
			opt, err := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil)
			if err != nil {
				panic(err)
			}
			optBlocks = len(opt.Blocks)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("biclique-k%d", k), itoa(len(members)),
			itoa(len(w.Blocks)), itoa(len(s.Blocks)), itoa(optBlocks),
			f2(core.Quality(optBlocks, len(w.Blocks))),
			f2(core.Quality(optBlocks, len(s.Blocks))),
		})
	}
	// Repository unsound composites.
	for _, e := range repo.Catalog() {
		o := soundness.NewOracle(e.Workflow)
		for _, vs := range e.Views {
			if vs.WantSound {
				continue
			}
			rep := soundness.ValidateView(o, vs.View)
			for _, ci := range rep.Unsound {
				members := vs.View.Composite(ci).Members()
				if len(members) > 18 {
					continue
				}
				w, _ := core.SplitTaskCtx(ctx, o, members, core.Weak, nil)
				s, _ := core.SplitTaskCtx(ctx, o, members, core.Strong, nil)
				opt, _ := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil)
				t.Rows = append(t.Rows, []string{
					e.Key + "/" + vs.View.Composite(ci).ID, itoa(len(members)),
					itoa(len(w.Blocks)), itoa(len(s.Blocks)), itoa(len(opt.Blocks)),
					f2(core.Quality(len(opt.Blocks), len(w.Blocks))),
					f2(core.Quality(len(opt.Blocks), len(s.Blocks))),
				})
			}
		}
	}
	t.Notes = append(t.Notes, "quality = optimal blocks / produced blocks (1.00 is best), the demo's §3.2 metric")
	return t
}

// E4Runtime sweeps the unsound-task size and times all three correctors.
func E4Runtime(ctx context.Context, fast bool) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Corrector runtime vs composite size (with optimal)",
		Claim:   "the strongly local optimal corrector is several orders of magnitude faster than the optimal corrector",
		Columns: []string{"n", "weak", "strong", "optimal", "optimal/strong"},
	}
	sizes := []int{8, 10, 12, 14, 16, 18}
	reps := 3
	if fast {
		sizes = []int{8, 10, 12}
		reps = 1
	}
	for _, n := range sizes {
		wf, members := gen.UnsoundTask(n, 1)
		o := soundness.NewOracle(wf)
		var tw, ts, topt time.Duration
		tw = medianDuration(reps, func() { core.SplitTaskCtx(ctx, o, members, core.Weak, nil) })
		ts = medianDuration(reps, func() { core.SplitTaskCtx(ctx, o, members, core.Strong, nil) })
		topt = medianDuration(reps, func() {
			if _, err := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			itoa(n), fdur(tw), fdur(ts), fdur(topt), fratio(topt, ts),
		})
	}
	t.Notes = append(t.Notes, "optimal is a 3^n subset DP: exact but exponential (Theorem 2.2: the problem is NP-hard)")
	return t
}

// E5StrongVsWeak extends the sweep beyond optimal's reach.
func E5StrongVsWeak(ctx context.Context, fast bool) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Strong vs weak corrector at scale",
		Claim:   "the efficiency of the strongly local optimal corrector is comparable with that of the weakly local optimal corrector",
		Columns: []string{"n", "weak", "strong", "strong/weak", "blocks(weak)", "blocks(strong)"},
	}
	sizes := []int{32, 64, 128, 256}
	reps := 3
	if fast {
		sizes = []int{24, 48}
		reps = 1
	}
	for _, n := range sizes {
		wf, members := gen.UnsoundTask(n, 1)
		o := soundness.NewOracle(wf)
		var bw, bs int
		tw := medianDuration(reps, func() {
			r, _ := core.SplitTaskCtx(ctx, o, members, core.Weak, nil)
			bw = len(r.Blocks)
		})
		ts := medianDuration(reps, func() {
			r, _ := core.SplitTaskCtx(ctx, o, members, core.Strong, nil)
			bs = len(r.Blocks)
		})
		t.Rows = append(t.Rows, []string{
			itoa(n), fdur(tw), fdur(ts), fratio(ts, tw), itoa(bw), itoa(bs),
		})
	}
	return t
}

// E6Validator compares the polynomial validators with the exponential
// path-enumeration strawman.
func E6Validator(fast bool) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Validator: polynomial vs path enumeration",
		Claim:   "checking soundness can take exponential time if Definition 2.1 is applied by checking all possible paths; WOLVES validates in polynomial time",
		Columns: []string{"tasks", "task-level", "def-2.1 closures", "naive paths", "naive steps"},
	}
	sizes := []int{16, 24, 32, 40}
	if fast {
		sizes = []int{16, 24}
	}
	const budget = 40_000_000
	for _, n := range sizes {
		wf := gen.Layered(gen.LayeredConfig{
			Name: "v", Tasks: n, Layers: n / 4, EdgeProb: 0.5, SkipProb: 0.1, Seed: 5,
		})
		o := soundness.NewOracle(wf)
		v := gen.IntervalView(wf, n/4, "bands")
		tFast := medianDuration(3, func() { soundness.ValidateView(o, v) })
		tPath := medianDuration(3, func() { soundness.ValidateViewPaths(o, v) })
		nv := soundness.NewNaiveValidator(o, budget)
		start := time.Now()
		_, err := nv.ValidateView(v)
		tNaive := time.Since(start)
		naive := fdur(tNaive)
		steps := itoa(nv.Steps())
		if err != nil {
			naive = "> " + fdur(tNaive) + " (budget hit)"
			steps = "> " + steps
		}
		t.Rows = append(t.Rows, []string{itoa(n), fdur(tFast), fdur(tPath), naive, steps})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("naive validator capped at %d DFS steps", budget))
	return t
}

// E7Provenance quantifies the motivation: view-level provenance is much
// smaller and faster than workflow-level provenance.
func E7Provenance(fast bool) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Provenance at workflow vs view level",
		Claim:   "a view can hide irrelevant details and be much smaller; analyzing transitive-closure queries at the view level can be more efficient",
		Columns: []string{"tasks", "composites", "wf pairs", "view pairs", "wf closure", "view closure", "speedup"},
	}
	sizes := []int{128, 256, 512, 1024}
	if fast {
		sizes = []int{64, 128}
	}
	for _, n := range sizes {
		wf := gen.Layered(gen.LayeredConfig{
			Name: "p", Tasks: n, Layers: n / 8, EdgeProb: 0.3, SkipProb: 0.02, Seed: 3,
		})
		k := n / 16
		v := gen.IntervalView(wf, k, "bands")
		var e *provenance.Engine
		var ve *provenance.ViewEngine
		tWF := medianDuration(3, func() {
			e = provenance.NewEngine(wf)
			e.Lineage(n - 1)
		})
		tView := medianDuration(3, func() {
			ve = provenance.NewViewEngine(v)
			ve.CompositeLineage(k - 1)
		})
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(k),
			itoa(e.ClosurePairs()), itoa(ve.ClosurePairs()),
			fdur(tWF), fdur(tView), fratio(tWF, tView),
		})
	}
	return t
}

// E8Survey reproduces the survey finding over the simulated repository.
func E8Survey() *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Repository survey",
		Claim:   "our survey of workflow designs in a well-curated workflow repository revealed unsound views",
		Columns: []string{"workflow", "source", "views", "unsound views", "unsound composites", "example witness"},
	}
	totalViews, totalUnsound := 0, 0
	for _, e := range repo.Catalog() {
		o := soundness.NewOracle(e.Workflow)
		unsoundViews, unsoundComps := 0, 0
		witness := ""
		for _, vs := range e.Views {
			rep := soundness.ValidateView(o, vs.View)
			if !rep.Sound {
				unsoundViews++
				unsoundComps += len(rep.Unsound)
				if witness == "" {
					cr := rep.Composites[rep.Unsound[0]]
					witness = cr.ID + ": " + soundness.DescribeViolation(e.Workflow, cr.Violations[0])
				}
			}
		}
		totalViews += len(e.Views)
		totalUnsound += unsoundViews
		t.Rows = append(t.Rows, []string{
			e.Key, e.Source, itoa(len(e.Views)), itoa(unsoundViews), itoa(unsoundComps), witness,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d of %d repository views are unsound", totalUnsound, totalViews))
	return t
}

// E9Estimator trains the §3.2 estimator on part of a corpus and checks
// its predictions on held-out instances.
func E9Estimator(ctx context.Context, fast bool) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Correction-time/quality estimator accuracy",
		Claim:   "to assist users ... we provide the estimated time and quality for each approach (grouping corrected workflows by sizes and substructures)",
		Columns: []string{"criterion", "group samples", "pred time", "actual time", "time err", "pred quality", "actual quality"},
	}
	est := estimate.New()
	trainSeeds := []int64{0, 1, 2, 3, 4}
	testSeeds := []int64{5, 6}
	sizes := []int{8, 10, 12, 14}
	if fast {
		trainSeeds = trainSeeds[:2]
		testSeeds = testSeeds[:1]
		sizes = sizes[:2]
	}
	type obs struct {
		crit    string
		n, edge int
		dur     time.Duration
		quality float64
	}
	measure := func(n int, seed int64) []obs {
		wf, members := gen.UnsoundTask(n, seed)
		o := soundness.NewOracle(wf)
		inner := 0
		memberSet := map[int]bool{}
		for _, m := range members {
			memberSet[m] = true
		}
		wf.Graph().Edges(func(u, v int) {
			if memberSet[u] && memberSet[v] {
				inner++
			}
		})
		opt, err := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil)
		if err != nil {
			panic(err)
		}
		var out []obs
		for _, crit := range []core.Criterion{core.Weak, core.Strong} {
			res, _ := core.SplitTaskCtx(ctx, o, members, crit, nil)
			out = append(out, obs{
				crit: crit.String(), n: n, edge: inner,
				dur:     res.Stats.Elapsed,
				quality: core.Quality(len(opt.Blocks), len(res.Blocks)),
			})
		}
		return out
	}
	for _, n := range sizes {
		for _, seed := range trainSeeds {
			for _, ob := range measure(n, seed) {
				est.Record(ob.n, ob.edge, ob.crit, ob.dur, ob.quality)
			}
		}
	}
	// Held-out evaluation. A test instance can land in a density bucket
	// with no history (the estimator then abstains, as the demo would);
	// testing across all sizes keeps the table populated.
	misses := 0
	for _, n := range sizes {
		for _, seed := range testSeeds {
			for _, ob := range measure(n, seed) {
				pred, ok := est.Predict(ob.n, ob.edge, ob.crit)
				if !ok {
					misses++
					continue
				}
				errPct := "n/a"
				if ob.dur > 0 {
					errPct = fmt.Sprintf("%.0f%%", 100*abs(float64(pred.AvgTime-ob.dur))/float64(ob.dur))
				}
				t.Rows = append(t.Rows, []string{
					ob.crit, itoa(pred.Samples),
					fdur(pred.AvgTime), fdur(ob.dur), errPct,
					f2(pred.AvgQuality), f2(ob.quality),
				})
			}
		}
	}
	if len(t.Rows) == 0 {
		// Degenerate fast-mode corpus: fall back to self-prediction so
		// the table always demonstrates the mechanism.
		for _, ob := range measure(sizes[0], trainSeeds[0]) {
			if pred, ok := est.Predict(ob.n, ob.edge, ob.crit); ok {
				t.Rows = append(t.Rows, []string{
					ob.crit, itoa(pred.Samples),
					fdur(pred.AvgTime), fdur(ob.dur), "in-sample",
					f2(pred.AvgQuality), f2(ob.quality),
				})
			}
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"trained on %d seeds per size, tested on held-out seeds; %d held-out instances had no matching group (estimator abstains)",
		len(trainSeeds), misses))
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// A1Phases ablates the strong corrector's phases.
func A1Phases(ctx context.Context, fast bool) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: strong corrector phases",
		Claim:   "(design) the seeded conflict-closure search is what lifts pair merging to strong local optimality",
		Columns: []string{"n", "seed", "pairs only", "+closures", "+seeded (full)", "optimal"},
	}
	sizes := []int{10, 12, 14}
	seeds := []int64{1, 2, 3}
	if fast {
		sizes = sizes[:1]
		seeds = seeds[:1]
	}
	// The Figure 3 instance first: the headline gap.
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	p1, _ := core.SplitTaskPhases(o, f.T, false, false)
	p2, _ := core.SplitTaskPhases(o, f.T, true, false)
	p3, _ := core.SplitTaskPhases(o, f.T, true, true)
	opt, _ := core.SplitTaskCtx(ctx, o, f.T, core.Optimal, nil)
	t.Rows = append(t.Rows, []string{"fig3", "-",
		itoa(len(p1.Blocks)), itoa(len(p2.Blocks)), itoa(len(p3.Blocks)), itoa(len(opt.Blocks))})
	// Scaled biclique instances: the gap grows linearly with k.
	for _, k := range []int{3, 4, 5} {
		wf, members := gen.BicliqueTask(k)
		ob := soundness.NewOracle(wf)
		b1, _ := core.SplitTaskPhases(ob, members, false, false)
		b2, _ := core.SplitTaskPhases(ob, members, true, false)
		b3, _ := core.SplitTaskPhases(ob, members, true, true)
		optB := "5"
		if len(members) <= 18 {
			ores, err := core.SplitTaskCtx(ctx, ob, members, core.Optimal, nil)
			if err != nil {
				panic(err)
			}
			optB = itoa(len(ores.Blocks))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("biclique-k%d", k), "-",
			itoa(len(b1.Blocks)), itoa(len(b2.Blocks)), itoa(len(b3.Blocks)), optB})
	}
	for _, n := range sizes {
		for _, seed := range seeds {
			wf, members := gen.UnsoundTask(n, seed)
			o := soundness.NewOracle(wf)
			p1, _ := core.SplitTaskPhases(o, members, false, false)
			p2, _ := core.SplitTaskPhases(o, members, true, false)
			p3, _ := core.SplitTaskPhases(o, members, true, true)
			opt, err := core.SplitTaskCtx(ctx, o, members, core.Optimal, nil)
			if err != nil {
				panic(err)
			}
			t.Rows = append(t.Rows, []string{itoa(n), itoa(int(seed)),
				itoa(len(p1.Blocks)), itoa(len(p2.Blocks)), itoa(len(p3.Blocks)), itoa(len(opt.Blocks))})
		}
	}
	return t
}

// A2MergeVsSplit compares split-based correction with the merge-based
// extension on every unsound repository view.
func A2MergeVsSplit(ctx context.Context) *Table {
	t := &Table{
		ID:    "A2",
		Title: "Ablation: split-based vs merge-based correction",
		Claim: "splitting composite tasks refines the initial view and provides more provenance information; in contrast, merging tasks loses information",
		Columns: []string{"view", "composites", "after split", "split+compact",
			"after merge-up", "split retains", "merge retains"},
	}
	for _, e := range repo.Catalog() {
		o := soundness.NewOracle(e.Workflow)
		for _, vs := range e.Views {
			if vs.WantSound {
				continue
			}
			split, err := core.CorrectViewCtx(ctx, o, vs.View, core.Strong, nil, 0)
			if err != nil {
				panic(err)
			}
			compacted, _, err := core.Compact(o, split.Corrected, 0)
			if err != nil {
				panic(err)
			}
			merged, err := core.MergeUp(o, vs.View)
			if err != nil {
				panic(err)
			}
			before := vs.View.N()
			t.Rows = append(t.Rows, []string{
				e.Key + "/" + vs.View.Name(), itoa(before),
				itoa(split.CompositesAfter), itoa(compacted.N()),
				itoa(merged.CompositesAfter),
				fmt.Sprintf("%.0f%%", 100*float64(split.CompositesAfter)/float64(before)),
				fmt.Sprintf("%.0f%%", 100*float64(merged.CompositesAfter)/float64(before)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"retention >100% means the corrected view exposes more provenance structure than the input; merge-up always coarsens")
	t.Notes = append(t.Notes,
		"split+compact = strong split followed by UNBOUNDED sound pair re-merging: it degenerates to the trivial 1-composite view, demonstrating why the paper flags the split/merge interaction as an open problem — soundness alone does not bound information loss")
	return t
}
