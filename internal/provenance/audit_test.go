package provenance_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/provenance/provenancetest"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Property: sound views audit clean; views never miss pairs; view-level
// task lineage is always a superset of true lineage restricted to
// foreign composites; and the audit agrees with the from-scratch
// reference.
func TestAuditProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 60; c++ {
		wf := randomWorkflow(rng, 4+rng.Intn(18))
		v := randomView(rng, wf)
		o := soundness.NewOracle(wf)
		e := provenance.NewEngine(wf)
		audit := provenance.AuditView(e, v)
		if err := provenancetest.Reference(v).Diff(audit); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if audit.MissingPairs != 0 {
			t.Fatalf("case %d: missing pairs: %+v", c, audit)
		}
		rep := soundness.ValidateView(o, v)
		if rep.Sound && audit.FalsePairs != 0 {
			t.Fatalf("case %d: sound view with false pairs: %+v", c, audit)
		}
		// View lineage ⊇ true lineage (outside the home composite).
		ve := provenance.NewViewEngine(v)
		for task := 0; task < wf.N(); task++ {
			viewSet := map[int]bool{}
			for _, x := range ve.TaskLineage(task) {
				viewSet[x] = true
			}
			home := v.CompOf(task)
			for _, x := range e.Lineage(task) {
				if v.CompOf(x) != home && !viewSet[x] {
					t.Fatalf("case %d: view lineage misses true ancestor %d of %d", c, x, task)
				}
			}
		}
	}
}

// TestAuditLabelsMatchesAuditView pins the label-index audit — the one
// the live registry builds from a read epoch — and AuditView, which
// runs it over labels built for the call, to the from-scratch reference
// (every count and every row of the four delta relations) on:
//   - Figure 1, where it must find the paper's spurious 14→18 pair;
//   - random workflows and views, sound and unsound;
//   - k on both sides of the 64-composite row-word boundaries;
//   - the n=4,096 wolvesbench shape;
//   - bitmap-row task labels (an over-budget dense graph);
//   - the cyclic quotients gen.InjectUnsound produces, and a chain
//     whose one cycle shares a position inside fully set mark words.
func TestAuditLabelsMatchesAuditView(t *testing.T) {
	cyclic := 0
	check := func(name string, v *view.View) *provenance.ViewAudit {
		t.Helper()
		ref := provenancetest.Reference(v)
		wf := v.Workflow()
		_, viewAnc := dag.BuildLabelPair(v.Graph())
		got := provenance.AuditLabels(v, dag.BuildLabels(wf.Graph()), viewAnc)
		if err := ref.Diff(got); err != nil {
			t.Fatalf("%s: AuditLabels: %v", name, err)
		}
		if err := ref.Diff(provenance.AuditView(provenance.NewEngine(wf), v)); err != nil {
			t.Fatalf("%s: AuditView: %v", name, err)
		}
		if !v.Graph().IsAcyclic() {
			cyclic++
		}
		return got
	}

	_, v := repo.Figure1()
	a := check("figure 1", v)
	i14, _ := v.CompIndex("14")
	i18, _ := v.CompIndex("18")
	if !slices.Contains(a.SpuriousUpstream(i18), int32(i14)) {
		t.Fatalf("figure 1: 14 not spurious upstream of 18: %v", a.SpuriousUpstream(i18))
	}
	if !slices.Contains(a.SpuriousDownstream(i14), int32(i18)) {
		t.Fatalf("figure 1: 18 not spurious downstream of 14: %v", a.SpuriousDownstream(i14))
	}
	if a.MissingUpstream(i18) != nil || a.MissingDownstream(i14) != nil {
		t.Fatal("figure 1: a quotient view reported missing pairs")
	}

	rng := rand.New(rand.NewSource(13))
	unsound := 0
	for c := 0; c < 80; c++ {
		wf := randomWorkflow(rng, 4+rng.Intn(30))
		if a := check("random", randomView(rng, wf)); a.FalsePairs > 0 {
			unsound++
		}
	}
	if unsound == 0 {
		t.Fatal("no random view audited false pairs; strengthen the workload")
	}

	layered := gen.Layered(gen.LayeredConfig{Name: "words", Tasks: 520, Layers: 16, EdgeProb: 0.05, Seed: 3})
	for _, k := range []int{1, 63, 64, 65, 127, 128, 129} {
		iv := gen.IntervalView(layered, k, "iv")
		if iv.N() != k {
			t.Fatalf("interval view has %d composites, want %d", iv.N(), k)
		}
		check(fmt.Sprintf("k=%d interval", k), iv)
		check(fmt.Sprintf("k=%d random", k), gen.RandomView(layered, k, int64(k), "rv"))
		if k > 2 {
			check(fmt.Sprintf("k=%d injected", k), gen.InjectUnsound(iv, max(1, k/16), int64(k)))
		}
	}

	for _, tc := range auditShapes(t, []int{4096}) {
		check(tc.name, tc.v)
	}

	// The dense graph's interval covers would take about 4× a closure
	// matrix; within one, its rows are bitmaps.
	dense := gen.Layered(gen.LayeredConfig{Name: "dense", Tasks: 2048, Layers: 2, EdgeProb: 0.5, Seed: 1})
	if l, n := dag.BuildLabels(dense.Graph()), int64(dense.N()); l.MemoryBytes() > n*n/8+64*n {
		t.Fatalf("dense graph: labels hold %d bytes, over n²/8 + O(n); want bitmap rows", l.MemoryBytes())
	}
	iv := gen.IntervalView(dense, 24, "iv")
	check("bitmap rows interval", iv)
	check("bitmap rows injected", gen.InjectUnsound(iv, 3, 1))

	// Composites 10–49 form one strongly connected component, so they
	// share one position of the reverse quotient labels; the last
	// composite's ancestors fill the first two mark words, the shared
	// position among them.
	check("folded chain", foldedChain(t, 200, 10, 50))

	if cyclic == 0 {
		t.Fatal("no audited view had a cyclic quotient; strengthen the workload")
	}
}

// --- helpers ----------------------------------------------------------------

func randomWorkflow(rng *rand.Rand, n int) *workflow.Workflow {
	b := workflow.NewBuilder("rnd")
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "t" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		b.AddTask(ids[i])
	}
	perm := rng.Perm(n)
	p := 0.1 + rng.Float64()*0.25
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(ids[perm[i]], ids[perm[j]])
			}
		}
	}
	wf, err := b.Build()
	if err != nil {
		panic(err)
	}
	return wf
}

// foldedChain returns the view of an n-task chain that puts tasks a
// and b (a < b) in composite a and every other task in a composite of
// its own, so the quotient folds composites a to b-1 into one cycle.
func foldedChain(t *testing.T, n, a, b int) *view.View {
	t.Helper()
	bl := workflow.NewBuilder("chain")
	for i := 0; i < n; i++ {
		bl.AddTask(fmt.Sprintf("t%d", i))
		if i > 0 {
			bl.AddEdge(fmt.Sprintf("t%d", i-1), fmt.Sprintf("t%d", i))
		}
	}
	wf, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	part := make([]int, n)
	for i := range part {
		switch {
		case i < b:
			part[i] = i
		case i == b:
			part[i] = a
		default:
			part[i] = i - 1
		}
	}
	v, err := view.FromPartition(wf, "folded", part)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func randomView(rng *rand.Rand, wf *workflow.Workflow) *view.View {
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
		panic(err)
	}
	return v
}
