package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/workflow"
)

func idsOf(wf *workflow.Workflow, blocks [][]int) [][]string {
	out := make([][]string, len(blocks))
	for i, blk := range blocks {
		for _, t := range blk {
			out[i] = append(out[i], wf.Task(t).ID)
		}
	}
	return out
}

// --- Figure 3: the paper's running example -------------------------------

func TestFigure3TaskIsUnsound(t *testing.T) {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	sound, viol := o.SoundSlice(f.T)
	if sound {
		t.Fatal("Figure 3(a) composite must be unsound")
	}
	if viol == nil {
		t.Fatal("missing violation witness")
	}
}

func TestFigure3WeakSplit(t *testing.T) {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	res, err := SplitTaskCtx(context.Background(), o, f.T, Weak, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSplit(o, f.T, res.Blocks); err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 8 {
		t.Fatalf("weak split has %d blocks, paper Figure 3(b) has 8:\n%v",
			len(res.Blocks), idsOf(f.Workflow, res.Blocks))
	}
	if got := idsOf(f.Workflow, res.Blocks); !reflect.DeepEqual(got, f.WeakBlocks) {
		t.Fatalf("weak blocks = %v, want %v", got, f.WeakBlocks)
	}
	if ok, pair := WeakOptimal(o, res.Blocks); !ok {
		t.Fatalf("weak output not weakly optimal: blocks %v combinable", pair)
	}
}

func TestFigure3StrongSplit(t *testing.T) {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	res, err := SplitTaskCtx(context.Background(), o, f.T, Strong, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSplit(o, f.T, res.Blocks); err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 5 {
		t.Fatalf("strong split has %d blocks, paper Figure 3(c) has 5:\n%v",
			len(res.Blocks), idsOf(f.Workflow, res.Blocks))
	}
	if got := idsOf(f.Workflow, res.Blocks); !reflect.DeepEqual(got, f.StrongBlocks) {
		t.Fatalf("strong blocks = %v, want %v", got, f.StrongBlocks)
	}
	optimal, witness, complete := StrongOptimal(o, res.Blocks, 22)
	if !complete {
		t.Fatal("exhaustive audit should be feasible at 5 blocks")
	}
	if !optimal {
		t.Fatalf("strong output not strongly optimal: subset %v combinable", witness)
	}
}

func TestFigure3OptimalSplit(t *testing.T) {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	res, err := SplitTaskCtx(context.Background(), o, f.T, Optimal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSplit(o, f.T, res.Blocks); err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 5 {
		t.Fatalf("optimal split has %d blocks, want 5 (matching Figure 3(c)):\n%v",
			len(res.Blocks), idsOf(f.Workflow, res.Blocks))
	}
}

func TestFigure3PaperWitnesses(t *testing.T) {
	f := repo.Figure3()
	wf := f.Workflow
	o := soundness.NewOracle(wf)

	// "if we merge tasks c, d, f and g ... the resulting task is sound".
	cdfg := []int{wf.MustIndex("c"), wf.MustIndex("d"), wf.MustIndex("f"), wf.MustIndex("g")}
	if ok, viol := o.SoundSlice(cdfg); !ok {
		t.Fatalf("{c,d,f,g} must be sound, got violation %v", viol)
	}
	// "if we tentatively merge f and g ... T is unsound, since there is
	// no path from g ∈ T.in to f ∈ T.out".
	fg := []int{wf.MustIndex("f"), wf.MustIndex("g")}
	ok, viol := o.SoundSlice(fg)
	if ok {
		t.Fatal("{f,g} must be unsound")
	}
	gi, fi := wf.MustIndex("g"), wf.MustIndex("f")
	if !(viol.From == gi && viol.To == fi) && !(viol.From == fi && viol.To == gi) {
		t.Fatalf("violation = %v, want between f and g", viol)
	}
	// No pair within {c,d,f,g} is combinable (weak stalls there).
	names := []string{"c", "d", "f", "g"}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if Combinable(o, []int{wf.MustIndex(names[i])}, []int{wf.MustIndex(names[j])}) {
				t.Fatalf("{%s,%s} must not be combinable", names[i], names[j])
			}
		}
	}
}

func TestFigure3StrongAudited(t *testing.T) {
	f := repo.Figure3()
	o := soundness.NewOracle(f.Workflow)
	res, err := SplitTaskCtx(context.Background(), o, f.T, StrongAudited, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Audited {
		t.Fatal("audit should complete at this size")
	}
	if len(res.Blocks) != 5 {
		t.Fatalf("audited strong split has %d blocks, want 5", len(res.Blocks))
	}
}

// --- Figure 1: the phylogenomics case study ------------------------------

func TestFigure1CorrectView(t *testing.T) {
	wf, v := repo.Figure1()
	o := soundness.NewOracle(wf)

	rep := soundness.ValidateView(o, v)
	if rep.Sound {
		t.Fatal("Figure 1(b) view must be unsound")
	}
	if len(rep.Unsound) != 1 || v.Composite(rep.Unsound[0]).ID != "16" {
		t.Fatalf("unsound composites = %v, want exactly composite 16", rep.Unsound)
	}
	viol := rep.Composites[rep.Unsound[0]].Violations[0]
	if wf.Task(viol.From).ID != "4" || wf.Task(viol.To).ID != "7" {
		t.Fatalf("witness = %s→%s, want 4→7",
			wf.Task(viol.From).ID, wf.Task(viol.To).ID)
	}

	for _, crit := range []Criterion{Weak, Strong, StrongAudited, Optimal} {
		vc, err := CorrectViewCtx(context.Background(), o, v, crit, nil, 0)
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		if got := soundness.ValidateView(o, vc.Corrected); !got.Sound {
			t.Fatalf("%v: corrected view still unsound", crit)
		}
		// {4,7} are parallel: the only sound split is two singletons.
		if vc.CompositesAfter != 8 {
			t.Fatalf("%v: corrected view has %d composites, want 8", crit, vc.CompositesAfter)
		}
		if len(vc.Tasks) != 1 || vc.Tasks[0].CompositeID != "16" || vc.Tasks[0].After != 2 {
			t.Fatalf("%v: corrections = %+v", crit, vc.Tasks)
		}
	}
}

// --- generic behaviour ----------------------------------------------------

func TestSplitSoundTaskIsIdentity(t *testing.T) {
	wf, _ := repo.Figure1()
	o := soundness.NewOracle(wf)
	// {1,2} is sound (single entry chain).
	members := []int{wf.MustIndex("1"), wf.MustIndex("2")}
	for _, crit := range []Criterion{Weak, Strong, StrongAudited, Optimal} {
		res, err := SplitTaskCtx(context.Background(), o, members, crit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Blocks) != 1 || len(res.Blocks[0]) != 2 {
			t.Fatalf("%v: sound task must stay whole, got %v", crit, res.Blocks)
		}
	}
}

func TestSplitTaskErrors(t *testing.T) {
	wf, _ := repo.Figure1()
	o := soundness.NewOracle(wf)
	if _, err := SplitTaskCtx(context.Background(), o, nil, Weak, nil); err == nil {
		t.Fatal("empty member set must error")
	}
	f := repo.Figure3()
	o3 := soundness.NewOracle(f.Workflow)
	if _, err := SplitTaskCtx(context.Background(), o3, f.T, Optimal, &Options{OptimalLimit: 4}); err == nil {
		t.Fatal("optimal beyond limit must error")
	}
	if _, err := SplitTaskCtx(context.Background(), o3, f.T, Criterion(99), nil); err == nil {
		t.Fatal("unknown criterion must error")
	}
}

func TestParseCriterion(t *testing.T) {
	for s, want := range map[string]Criterion{
		"weak": Weak, "strong": Strong, "strong-audited": StrongAudited,
		"audited": StrongAudited, "optimal": Optimal,
	} {
		got, err := ParseCriterion(s)
		if err != nil || got != want {
			t.Fatalf("ParseCriterion(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCriterion("bogus"); err == nil {
		t.Fatal("bogus criterion must error")
	}
	if Weak.String() != "weak-local-optimal" || Optimal.String() != "optimal" {
		t.Fatal("String names wrong")
	}
	if Criterion(99).String() == "" {
		t.Fatal("unknown criterion must still render")
	}
}

// randomCase builds a random workflow plus a random contiguous composite.
func randomCase(rng *rand.Rand, maxN int) (*workflow.Workflow, []int) {
	n := 4 + rng.Intn(maxN-3)
	extra := 2 + rng.Intn(4) // external context tasks
	b := workflow.NewBuilder("rand")
	total := n + extra
	ids := make([]string, total)
	for i := 0; i < total; i++ {
		ids[i] = fmt.Sprintf("t%d", i)
		b.AddTask(ids[i])
	}
	// Random DAG on a random permutation (forward edges only).
	perm := rng.Perm(total)
	p := 0.08 + rng.Float64()*0.3
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			if rng.Float64() < p {
				b.AddEdge(ids[perm[i]], ids[perm[j]])
			}
		}
	}
	wf, err := b.Build()
	if err != nil {
		panic(err)
	}
	// Composite = a random subset of size n.
	chosen := rng.Perm(total)[:n]
	return wf, chosen
}

func TestRandomizedCorrectorAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(20090824)) // VLDB'09 dates
	cases := 150
	if testing.Short() {
		cases = 40
	}
	for c := 0; c < cases; c++ {
		wf, members := randomCase(rng, 11)
		o := soundness.NewOracle(wf)

		weak, err := SplitTaskCtx(context.Background(), o, members, Weak, nil)
		if err != nil {
			t.Fatal(err)
		}
		strong, err := SplitTaskCtx(context.Background(), o, members, Strong, nil)
		if err != nil {
			t.Fatal(err)
		}
		audited, err := SplitTaskCtx(context.Background(), o, members, StrongAudited, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := SplitTaskCtx(context.Background(), o, members, Optimal, nil)
		if err != nil {
			t.Fatal(err)
		}

		for name, res := range map[string]*Result{
			"weak": weak, "strong": strong, "audited": audited, "optimal": opt,
		} {
			if err := CheckSplit(o, members, res.Blocks); err != nil {
				t.Fatalf("case %d: %s: invalid split: %v", c, name, err)
			}
		}
		if ok, pair := WeakOptimal(o, weak.Blocks); !ok {
			t.Fatalf("case %d: weak output has combinable pair %v", c, pair)
		}
		if ok, pair := WeakOptimal(o, strong.Blocks); !ok {
			t.Fatalf("case %d: strong output has combinable pair %v", c, pair)
		}
		if optimal, witness, complete := StrongOptimal(o, strong.Blocks, 20); complete && !optimal {
			t.Fatalf("case %d: strong output misses combinable subset %v (weak=%d strong=%d opt=%d)",
				c, witness, len(weak.Blocks), len(strong.Blocks), len(opt.Blocks))
		}
		if optimal, witness, complete := StrongOptimal(o, audited.Blocks, 20); complete && !optimal {
			t.Fatalf("case %d: audited output misses combinable subset %v", c, witness)
		}
		// Ordering: optimal ≤ audited ≤ strong ≤ weak (by block count).
		if len(opt.Blocks) > len(audited.Blocks) || len(audited.Blocks) > len(strong.Blocks) ||
			len(strong.Blocks) > len(weak.Blocks) {
			t.Fatalf("case %d: counts out of order: opt=%d audited=%d strong=%d weak=%d",
				c, len(opt.Blocks), len(audited.Blocks), len(strong.Blocks), len(weak.Blocks))
		}
	}
}

// TestBicliqueFamilyScalesFigure3 pins the Figure 3 gap at every
// biclique size: weak stalls at 2k+4 blocks, strong and optimal reach 5.
func TestBicliqueFamilyScalesFigure3(t *testing.T) {
	ks := []int{2, 3, 4, 5, 6}
	if testing.Short() {
		ks = ks[:3]
	}
	for _, k := range ks {
		wf, members := gen.BicliqueTask(k)
		o := soundness.NewOracle(wf)
		weak, err := SplitTaskCtx(context.Background(), o, members, Weak, nil)
		if err != nil {
			t.Fatal(err)
		}
		strong, err := SplitTaskCtx(context.Background(), o, members, Strong, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(weak.Blocks) != 2*k+4 {
			t.Fatalf("k=%d: weak blocks = %d, want %d", k, len(weak.Blocks), 2*k+4)
		}
		if len(strong.Blocks) != 5 {
			t.Fatalf("k=%d: strong blocks = %d, want 5", k, len(strong.Blocks))
		}
		if err := CheckSplit(o, members, strong.Blocks); err != nil {
			t.Fatal(err)
		}
		if ok, pair := WeakOptimal(o, weak.Blocks); !ok {
			t.Fatalf("k=%d: weak output has combinable pair %v", k, pair)
		}
		if 2*k+8 <= 18 { // the 3^n DP gets slow beyond this
			opt, err := SplitTaskCtx(context.Background(), o, members, Optimal, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(opt.Blocks) != 5 {
				t.Fatalf("k=%d: optimal blocks = %d, want 5", k, len(opt.Blocks))
			}
		}
		if optimal, witness, complete := StrongOptimal(o, strong.Blocks, 22); complete && !optimal {
			t.Fatalf("k=%d: strong output misses subset %v", k, witness)
		}
	}
}

func TestOptimalMatchesBruteForceSmall(t *testing.T) {
	// Independent brute force over all set partitions (n ≤ 7) to verify
	// the subset DP end to end.
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < 40; c++ {
		wf, members := randomCase(rng, 7)
		o := soundness.NewOracle(wf)
		opt, err := SplitTaskCtx(context.Background(), o, members, Optimal, nil)
		if err != nil {
			t.Fatal(err)
		}
		best := bruteForceMin(o, members)
		if len(opt.Blocks) != best {
			t.Fatalf("case %d: DP found %d blocks, brute force %d", c, len(opt.Blocks), best)
		}
	}
}

// bruteForceMin enumerates all set partitions via restricted growth
// strings and returns the minimum number of sound blocks.
func bruteForceMin(o *soundness.Oracle, members []int) int {
	n := len(members)
	assign := make([]int, n)
	best := n + 1
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if maxUsed+1 >= best {
			return // cannot beat current best
		}
		if i == n {
			blocks := make([][]int, maxUsed+1)
			for j, a := range assign {
				blocks[a] = append(blocks[a], members[j])
			}
			for _, blk := range blocks {
				if ok, _ := o.SoundSlice(blk); !ok {
					return
				}
			}
			if maxUsed+1 < best {
				best = maxUsed + 1
			}
			return
		}
		for a := 0; a <= maxUsed+1; a++ {
			assign[i] = a
			nm := maxUsed
			if a > maxUsed {
				nm = a
			}
			rec(i+1, nm)
		}
	}
	rec(0, -1)
	return best
}

func TestQualityMetric(t *testing.T) {
	if Quality(5, 8) != 0.625 || Quality(5, 5) != 1.0 {
		t.Fatal("quality ratio wrong")
	}
	if Quality(3, 0) != 0 {
		t.Fatal("zero blocks must yield zero quality")
	}
}

func TestSortBlocks(t *testing.T) {
	blocks := [][]int{{9, 2}, {1, 5}, {3}}
	SortBlocks(blocks)
	if !reflect.DeepEqual(blocks, [][]int{{1, 5}, {2, 9}, {3}}) {
		t.Fatalf("SortBlocks = %v", blocks)
	}
}
