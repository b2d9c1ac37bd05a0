package wolves_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"wolves"
)

// TestFacadeQuickstart runs the package-doc quick start end to end; if
// this breaks, the README is lying.
func TestFacadeQuickstart(t *testing.T) {
	wf, err := wolves.NewWorkflowBuilder("demo").
		AddTask("extract").AddTask("cleanA").AddTask("cleanB").AddTask("load").
		AddEdge("extract", "cleanA").AddEdge("extract", "cleanB").
		AddEdge("cleanA", "load").AddEdge("cleanB", "load").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := wolves.ViewFromAssignments(wf, "v", map[string][]string{
		"in": {"extract"}, "clean": {"cleanA", "cleanB"}, "out": {"load"},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := wolves.NewEngine()
	ctx := context.Background()
	report, err := eng.Validate(ctx, wf, v)
	if err != nil || report.Sound {
		t.Fatalf("the clean composite must be unsound: %v", err)
	}
	fixed, err := eng.Correct(ctx, wf, v, wolves.Strong)
	if err != nil {
		t.Fatal(err)
	}
	if report, err := eng.Validate(ctx, wf, fixed.Corrected); err != nil || !report.Sound {
		t.Fatalf("corrected view must be sound: %v", err)
	}
	if fixed.Corrected.N() != 4 {
		t.Fatalf("composites = %d, want 4", fixed.Corrected.N())
	}
}

func TestFacadeRepositoryAndFigures(t *testing.T) {
	if len(wolves.Repository()) != 10 {
		t.Fatal("repository size changed")
	}
	if _, err := wolves.RepositoryGet("phylogenomics"); err != nil {
		t.Fatal(err)
	}
	wf, v := wolves.Figure1()
	if wf.N() != 12 || v.N() != 7 {
		t.Fatal("figure 1 shape wrong")
	}
	f3 := wolves.Figure3()
	if len(f3.T) != 12 {
		t.Fatal("figure 3 shape wrong")
	}
}

func TestFacadeMOMLAndDisplay(t *testing.T) {
	wf, v := wolves.Figure1()
	var buf bytes.Buffer
	if err := wolves.EncodeMOML(&buf, wf, v); err != nil {
		t.Fatal(err)
	}
	doc, err := wolves.DecodeMOML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.View == nil {
		t.Fatal("view lost in MOML round trip")
	}
	var dot bytes.Buffer
	report, err := wolves.NewEngine().Validate(context.Background(), wf, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := wolves.WorkflowDOT(&dot, wf, v, &wolves.DisplayOptions{Report: report}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "cluster_16") {
		t.Fatal("DOT missing clusters")
	}
}

func TestFacadeLineageAndSession(t *testing.T) {
	wf, v := wolves.Figure1()
	e := wolves.NewLineageEngine(wf)
	audit := wolves.AuditProvenance(e, v)
	if audit.FalsePairs == 0 {
		t.Fatal("unsound view must produce false provenance pairs")
	}
	s, err := wolves.NewSession(wf, v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CorrectCtx(context.Background(), wolves.Optimal, nil); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.ValidateCtx(context.Background()); err != nil || !rep.Sound {
		t.Fatalf("session correction failed: %v", err)
	}
	tr := wolves.Execute(wf, "r1")
	if len(tr.Artifacts()) != wf.N() {
		t.Fatal("trace shape wrong")
	}
}

func TestFacadeValidatePathsAndCodecs(t *testing.T) {
	wf, v := wolves.Figure1()
	prep := wolves.ValidatePaths(wolves.NewEngine().Oracle(wf), v)
	if prep.Sound || len(prep.FalsePaths) == 0 {
		t.Fatalf("path report = %+v", prep)
	}
	av := wolves.AtomicView(wf)
	if av.N() != wf.N() {
		t.Fatal("atomic view wrong")
	}
	var wfJSON, vJSON bytes.Buffer
	if err := wf.EncodeJSON(&wfJSON); err != nil {
		t.Fatal(err)
	}
	if err := v.EncodeJSON(&vJSON); err != nil {
		t.Fatal(err)
	}
	wf2, err := wolves.DecodeWorkflowJSON(&wfJSON)
	if err != nil || wf2.N() != wf.N() {
		t.Fatalf("workflow codec: %v", err)
	}
	if _, err := wolves.DecodeViewJSON(wf2, &vJSON); err != nil {
		t.Fatalf("view codec: %v", err)
	}
	vb, err := wolves.NewViewBuilder(wf, "vb").Assign("all", wf.IDs()...).Build()
	if err != nil || vb.N() != 1 {
		t.Fatalf("view builder: %v", err)
	}
}

func TestFacadeCorrectionExtensions(t *testing.T) {
	wf, v := wolves.Figure1()
	eng := wolves.NewEngine()
	ctx := context.Background()
	sound := func(v *wolves.View) bool {
		rep, err := eng.Validate(ctx, wf, v)
		return err == nil && rep.Sound
	}
	o := eng.Oracle(wf)
	mu, err := wolves.MergeUp(o, v)
	if err != nil || !sound(mu.Corrected) {
		t.Fatalf("merge-up: %v", err)
	}
	fixed, err := eng.CorrectWithOracle(ctx, o, v, wolves.StrongAudited, nil)
	if err != nil {
		t.Fatal(err)
	}
	compacted, merges, err := wolves.Compact(o, fixed.Corrected, 2)
	if err != nil || merges > 2 {
		t.Fatalf("compact: %v merges=%d", err, merges)
	}
	if !sound(compacted) {
		t.Fatal("compacted view unsound")
	}
	// Auditors on a known split.
	f3 := wolves.Figure3()
	o3 := eng.Oracle(f3.Workflow)
	strong, err := eng.SplitWithOracle(ctx, o3, f3.T, wolves.Strong, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, pair := wolves.WeakOptimal(o3, strong.Blocks); !ok {
		t.Fatalf("weak audit failed: %v", pair)
	}
	if ok, witness, complete := wolves.StrongOptimal(o3, strong.Blocks, 22); !complete || !ok {
		t.Fatalf("strong audit failed: %v %v", witness, complete)
	}
	var buf bytes.Buffer
	if err := wolves.Summary(&buf, o3, f3.View); err != nil {
		t.Fatal(err)
	}
	if err := wolves.ViewDOT(&buf, f3.View, nil); err != nil {
		t.Fatal(err)
	}
	e := wolves.NewLineageEngine(f3.Workflow)
	if err := wolves.Dependencies(&buf, e, "c"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMoreGenerators(t *testing.T) {
	sp := wolves.GenSeriesParallel(wolves.SPConfig{Name: "sp", Depth: 2, MaxBranch: 3, Seed: 1})
	if sp.N() < 4 {
		t.Fatal("series-parallel too small")
	}
	lay := wolves.GenLayered(wolves.LayeredConfig{Name: "l", Tasks: 20, Layers: 4, EdgeProb: 0.4, Seed: 2})
	rv := wolves.GenRandomView(lay, 5, 3, "rv")
	iv := wolves.GenIntervalView(lay, 5, "iv")
	if rv.N() != 5 || iv.N() != 5 {
		t.Fatal("view generators wrong")
	}
	if _, err := wolves.GenBitonStyleView(lay, []string{"t3"}, "bv"); err != nil {
		t.Fatal(err)
	}
	wfB, members := wolves.GenBicliqueTask(3)
	oB := wolves.NewEngine().Oracle(wfB)
	if ok, _ := oB.SoundSlice(members); ok {
		t.Fatal("biclique composite must be unsound")
	}
}

func TestFacadeGenerators(t *testing.T) {
	wf := wolves.GenScientificPipeline(wolves.PipelineConfig{
		Name: "p", Branches: 2, ChainLen: 2, SideChains: 1, SideChainLen: 2,
	})
	if wf.N() == 0 {
		t.Fatal("empty pipeline")
	}
	mv := wolves.GenModuleView(wf, "m")
	if mv.N() == 0 {
		t.Fatal("empty module view")
	}
	w2, members := wolves.GenUnsoundTask(12, 1)
	res, err := wolves.NewEngine().SplitTask(context.Background(), w2, members, wolves.Weak)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) < 2 {
		t.Fatal("unsound task must split into multiple blocks")
	}
	if q := wolves.Quality(5, 8); q != 0.625 {
		t.Fatalf("quality = %f", q)
	}
	if _, err := wolves.ParseCriterion("strong"); err != nil {
		t.Fatal(err)
	}
}
