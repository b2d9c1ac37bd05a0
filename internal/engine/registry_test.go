package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wolves/internal/core"
	"wolves/internal/obs"
	"wolves/internal/provenance/provenancetest"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// figure1Registered builds the README walkthrough state: Figure 1's
// workflow without the 3→4 and 4→5 edges (so composite 16 = {4,7} is
// initially sound — task 4 is isolated) registered as "phylo" with the
// Figure 1(b) view attached as "fig1b".
func figure1Registered(t *testing.T, reg *Registry) *LiveWorkflow {
	t.Helper()
	b := workflow.NewBuilder("phylogenomics")
	for i := 1; i <= 12; i++ {
		b.AddTask(fmt.Sprintf("%d", i))
	}
	b.AddEdge("1", "2").AddEdge("2", "3").AddEdge("2", "6").
		AddEdge("6", "7").AddEdge("7", "8").AddEdge("8", "11").
		AddEdge("5", "11").AddEdge("9", "10").AddEdge("10", "11").
		AddEdge("11", "12")
	wf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lw, err := reg.RegisterCtx(context.Background(), "phylo", wf)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := lw.AttachViewCtx(context.Background(), "fig1b", func(wf *workflow.Workflow) (*view.View, error) {
		return view.NewBuilder(wf, "fig1b").
			Assign("13", "1", "2").
			Assign("14", "3").
			Assign("15", "6").
			Assign("16", "4", "7").
			Assign("17", "5").
			Assign("18", "8").
			Assign("19", "9", "10", "11", "12").
			Build()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Fatalf("pre-mutation view must be sound, got unsound composites %v", rep.Unsound)
	}
	return lw
}

// assertLiveReportsFresh asserts every attached view's maintained report
// equals a from-scratch validation over a freshly computed closure.
func assertLiveReportsFresh(t *testing.T, lw *LiveWorkflow) {
	t.Helper()
	lw.mu.RLock()
	defer lw.mu.RUnlock()
	fresh := soundness.NewOracle(lw.wf)
	for _, vid := range lw.viewOrder {
		lv := lw.views[vid]
		want := soundness.ValidateView(fresh, lv.v)
		if !reflect.DeepEqual(lv.report, want) {
			t.Fatalf("view %q: maintained report diverged from from-scratch validation\ngot:  %+v\nwant: %+v",
				vid, lv.report, want)
		}
	}
}

func TestRegistryFigure1Walkthrough(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)

	// Adding 3→4 gives composite 16 an in-node (4) that cannot reach its
	// out-node (7): the view flips unsound, caught by revalidating only
	// the dirty composites.
	res, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 || res.EdgesAdded != 1 {
		t.Fatalf("mutation result %+v, want version 2, 1 edge", res)
	}
	if len(res.Views) != 1 {
		t.Fatalf("want one view delta, got %+v", res.Views)
	}
	vd := res.Views[0]
	if vd.Sound || !reflect.DeepEqual(vd.Flipped, []string{"16"}) || !reflect.DeepEqual(vd.Unsound, []string{"16"}) {
		t.Fatalf("view delta %+v, want composite 16 flipped unsound", vd)
	}
	assertLiveReportsFresh(t, lw)

	// Completing Figure 1 (edge 4→5) keeps 16 unsound; the final state
	// must report exactly like the canonical Figure 1 instance.
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"4", "5"}}}); err != nil {
		t.Fatal(err)
	}
	rep, version, err := lw.Report("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	if version != 3 {
		t.Fatalf("version = %d, want 3", version)
	}
	wfRef, vRef := repo.Figure1()
	want := soundness.ValidateView(soundness.NewOracle(wfRef), vRef)
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("post-mutation report diverges from canonical Figure 1:\ngot:  %+v\nwant: %+v", rep, want)
	}
	assertLiveReportsFresh(t, lw)
}

func TestRegistryCycleRollbackIsAtomic(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	infoBefore, err := lw.Info()
	if err != nil {
		t.Fatal(err)
	}
	repBefore, _, _ := lw.Report("fig1b")

	// Batch: one new task, one good edge, then an edge closing a cycle
	// through the good edge. Everything must unwind.
	_, err = lw.MutateCtx(context.Background(), Mutation{
		Tasks: []workflow.Task{{ID: "99"}},
		Edges: [][2]string{{"3", "4"}, {"12", "99"}, {"4", "2"}},
	})
	var ee *Error
	if !errors.As(err, &ee) || ee.Code != ErrCycleRejected {
		t.Fatalf("cycle batch error = %v, want code %s", err, ErrCycleRejected)
	}
	infoAfter, err := lw.Info()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(infoAfter, infoBefore) {
		t.Fatalf("rollback left a trace: %+v vs %+v", infoAfter, infoBefore)
	}
	repAfter, _, _ := lw.Report("fig1b")
	if !reflect.DeepEqual(repAfter, repBefore) {
		t.Fatal("rollback changed the maintained report")
	}
	assertLiveReportsFresh(t, lw)

	// The rolled-back state must still accept valid mutations.
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}}); err != nil {
		t.Fatalf("mutation after rollback failed: %v", err)
	}
	assertLiveReportsFresh(t, lw)
}

// TestRegistryFirstEdgeRejectionChangesNothing pins that a batch
// rejected at its first edge — a failed AddEdge leaves every structure
// untouched — rebuilds nothing: the closure, both label indexes and the
// published epoch stay the very same objects, and no label build is
// counted.
func TestRegistryFirstEdgeRejectionChangesNothing(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	for _, edges := range [][][2]string{
		{{"12", "1"}},            // closes 1→…→12→1
		{{"3", "1"}, {"3", "4"}}, // closes 1→2→3→1; the second edge is valid
	} {
		fwd, labels, rev := lw.ic.Fwd(), lw.ic.Labels(), lw.ic.RevLabels()
		ep, builds, version := lw.epoch.Load(), lw.ic.LabelBuilds(), lw.Version()
		_, err := lw.MutateCtx(context.Background(), Mutation{Edges: edges})
		if !hasCode(err, ErrCycleRejected) {
			t.Fatalf("batch %v: error = %v, want code %s", edges, err, ErrCycleRejected)
		}
		if lw.ic.Fwd() != fwd || lw.ic.Labels() != labels || lw.ic.RevLabels() != rev {
			t.Fatalf("batch %v: the rejection replaced the closure or a label index", edges)
		}
		if lw.epoch.Load() != ep {
			t.Fatalf("batch %v: the rejection republished the epoch", edges)
		}
		if lw.ic.LabelBuilds() != builds || lw.Version() != version {
			t.Fatalf("batch %v: label builds %d → %d, version %d → %d; want both unchanged",
				edges, builds, lw.ic.LabelBuilds(), version, lw.Version())
		}
		assertLiveReportsFresh(t, lw)
	}
}

func TestRegistryTaskAdditionExtendsViews(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	res, err := lw.MutateCtx(context.Background(), Mutation{
		Tasks: []workflow.Task{{ID: "13b", Name: "Archive tree"}},
		Edges: [][2]string{{"12", "13b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksAdded != 1 || res.EdgesAdded != 1 {
		t.Fatalf("result %+v", res)
	}
	rep, _, err := lw.Report("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Composites[len(rep.Composites)-1]
	if last.ID != "13b" || !last.Sound {
		t.Fatalf("new singleton composite missing or unsound: %+v", last)
	}
	assertLiveReportsFresh(t, lw)
}

func TestRegistryVersionConflict(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	_, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}, IfVersion: 7})
	var ee *Error
	if !errors.As(err, &ee) || ee.Code != ErrVersionConflict {
		t.Fatalf("stale IfVersion error = %v, want %s", err, ErrVersionConflict)
	}
	// The matching version succeeds.
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}, IfVersion: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryTypedLookupErrors(t *testing.T) {
	reg := NewRegistry(New())
	if _, err := reg.Get("nope"); !hasCode(err, ErrUnknownWorkflow) {
		t.Fatalf("Get(nope) = %v", err)
	}
	if err := reg.DeleteCtx(context.Background(), "nope"); !hasCode(err, ErrUnknownWorkflow) {
		t.Fatalf("Delete(nope) = %v", err)
	}
	lw := figure1Registered(t, reg)
	if _, _, err := lw.Report("nope"); !hasCode(err, ErrUnknownView) {
		t.Fatalf("Report(nope) = %v", err)
	}
	if _, err := lw.Lineage("fig1b", "nope"); !hasCode(err, ErrUnknownTask) {
		t.Fatalf("Lineage(bad task) = %v", err)
	}
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"1", "nope"}}}); !hasCode(err, ErrUnknownTask) {
		t.Fatalf("Mutate(bad edge) = %v", err)
	}
	if err := reg.DeleteCtx(context.Background(), "phylo"); err != nil {
		t.Fatal(err)
	}
	// Operations through the stale handle fail cleanly.
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}}); !hasCode(err, ErrUnknownWorkflow) {
		t.Fatalf("Mutate on deleted = %v", err)
	}
	if _, _, err := lw.Report("fig1b"); !hasCode(err, ErrUnknownWorkflow) {
		t.Fatalf("Report on deleted = %v", err)
	}
}

func hasCode(err error, code Code) bool {
	var ee *Error
	return errors.As(err, &ee) && ee.Code == code
}

func TestRegistryEviction(t *testing.T) {
	reg := NewRegistry(New(), WithRegistryCapacity(2))
	mk := func(name string) *LiveWorkflow {
		wf, err := workflow.NewBuilder(name).AddTask("a").AddTask("b").Chain("a", "b").Build()
		if err != nil {
			t.Fatal(err)
		}
		lw, err := reg.RegisterCtx(context.Background(), name, wf)
		if err != nil {
			t.Fatal(err)
		}
		return lw
	}
	a := mk("a")
	mk("b")
	if _, err := reg.Get("a"); err != nil { // refresh a's recency: b is now LRU
		t.Fatal(err)
	}
	mk("c")
	if reg.Len() != 2 {
		t.Fatalf("registry holds %d workflows, want 2", reg.Len())
	}
	if _, err := reg.Get("b"); !hasCode(err, ErrUnknownWorkflow) {
		t.Fatalf("LRU workflow b should be evicted, Get = %v", err)
	}
	if _, err := reg.Get("a"); err != nil {
		t.Fatalf("recently used workflow a evicted: %v", err)
	}
	_ = a
}

func TestRegistrySnapshot(t *testing.T) {
	eng := New()
	reg := NewRegistry(eng)
	lw := figure1Registered(t, reg)
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}, {"4", "5"}}}); err != nil {
		t.Fatal(err)
	}
	size0 := eng.CacheStats().Size
	snap, version, err := lw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("snapshot version = %d, want 2", version)
	}
	// Snapshots are plain copies: the oracle cache serves stateless
	// requests only, so taking one adds no entry.
	if size := eng.CacheStats().Size; size != size0 {
		t.Fatalf("Snapshot changed the oracle cache size %d → %d", size0, size)
	}

	// The snapshot equals canonical Figure 1, and a stateless Validate on
	// it reports what a fresh oracle over Figure 1 does.
	wfRef, vRef := repo.Figure1()
	if !workflow.Same(snap, wfRef) {
		t.Fatal("snapshot does not match canonical Figure 1")
	}
	snapView, err := view.FromAssignments(snap, "fig1b", map[string][]string{
		"16": {"4", "7"}, "13": {"1", "2"}, "14": {"3"}, "15": {"6"},
		"17": {"5"}, "18": {"8"}, "19": {"9", "10", "11", "12"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Validate(context.Background(), snap, snapView)
	if err != nil {
		t.Fatal(err)
	}
	want := soundness.ValidateView(soundness.NewOracle(wfRef), vRef)
	if rep.Sound != want.Sound || !reflect.DeepEqual(rep.Unsound, want.Unsound) {
		t.Fatalf("snapshot report diverges: %+v vs %+v", rep, want)
	}

	// Snapshots are insulated from later mutations.
	if _, err := lw.MutateCtx(context.Background(), Mutation{Tasks: []workflow.Task{{ID: "zz"}}}); err != nil {
		t.Fatal(err)
	}
	if snap.N() != 12 {
		t.Fatalf("mutation reached a published snapshot: n=%d", snap.N())
	}
}

func TestRegistryInfos(t *testing.T) {
	reg := NewRegistry(New())
	if infos := reg.Infos(); len(infos) != 0 {
		t.Fatalf("empty registry Infos = %+v", infos)
	}
	lw := figure1Registered(t, reg)
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}}); err != nil {
		t.Fatal(err)
	}
	wf, err := workflow.NewBuilder("aaa").AddTask("x").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterCtx(context.Background(), "aaa", wf); err != nil {
		t.Fatal(err)
	}
	infos := reg.Infos()
	if len(infos) != 2 || infos[0].ID != "aaa" || infos[1].ID != "phylo" {
		t.Fatalf("Infos = %+v, want [aaa phylo] sorted", infos)
	}
	if infos[1].Version != 2 || len(infos[1].Views) != 1 || infos[1].Views[0] != "fig1b" {
		t.Fatalf("phylo info = %+v, want version 2 with view fig1b", infos[1])
	}
	if infos[0].Tasks != 1 || infos[0].Version != 1 {
		t.Fatalf("aaa info = %+v", infos[0])
	}
}

func TestRegistryLineageFigure1(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}, {"4", "5"}}}); err != nil {
		t.Fatal(err)
	}
	// The paper's running example: through the unsound Figure 1(b) view,
	// the provenance of task 8's output wrongly includes tasks 3 and 4.
	res, err := lw.Lineage("fig1b", "8")
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewSound {
		t.Fatal("fig1b must be unsound after completing Figure 1")
	}
	if !reflect.DeepEqual(res.WorkflowLineage, []string{"1", "2", "6", "7"}) {
		t.Fatalf("workflow lineage %v", res.WorkflowLineage)
	}
	if !reflect.DeepEqual(res.FalsePositives, []string{"3", "4"}) {
		t.Fatalf("false positives %v, want [3 4]", res.FalsePositives)
	}
}

// TestReadPinsAuditToEpoch checks the one way readers get an epoch: the
// audit is built once per (view, version), carried across a republish
// that keeps the version and the view object, rebuilt after a
// mutation; only a build is observed in wolves_audit_build_seconds; an
// unknown view yields no audit, and a closed workflow reads as unknown.
func TestReadPinsAuditToEpoch(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	builds := obs.MAuditBuild.Count()
	ep1, a1, err := lw.Read("fig1b")
	if err != nil || a1 == nil {
		t.Fatalf("Read = %v, %v", a1, err)
	}
	if _, again, _ := lw.Read("fig1b"); again != a1 {
		t.Fatal("audit rebuilt within one epoch")
	}
	if got := obs.MAuditBuild.Count() - builds; got != 1 {
		t.Fatalf("audit builds observed = %d, want 1: a cached read observed a build", got)
	}
	// Attaching another view republishes at the same version.
	if _, _, err := lw.AttachViewCtx(context.Background(), "solo", func(wf *workflow.Workflow) (*view.View, error) {
		b := view.NewBuilder(wf, "solo")
		for i := 0; i < wf.N(); i++ {
			b.Assign("c"+wf.Task(i).ID, wf.Task(i).ID)
		}
		return b.Build()
	}); err != nil {
		t.Fatal(err)
	}
	ep2, a2, err := lw.Read("fig1b")
	if err != nil || ep2 == ep1 || ep2.Version() != ep1.Version() {
		t.Fatalf("attach must republish at version %d: %v", ep1.Version(), err)
	}
	if a2 != a1 {
		t.Fatal("audit not carried across a same-version republish")
	}
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}, {"4", "5"}}}); err != nil {
		t.Fatal(err)
	}
	ep3, a3, err := lw.Read("fig1b")
	if err != nil || ep3.Version() != 2 || a3 == a1 {
		t.Fatalf("Read after mutate: version %d, rebuilt %v, %v", ep3.Version(), a3 != a1, err)
	}
	if got := obs.MAuditBuild.Count() - builds; got != 2 {
		t.Fatalf("audit builds observed = %d, want 2 after the mutation", got)
	}
	if a3.FalsePairs == 0 {
		t.Fatal("completed Figure 1 must audit spurious composite pairs")
	}
	lw.mu.RLock()
	want := provenancetest.Reference(lw.views["fig1b"].v)
	lw.mu.RUnlock()
	if err := want.Diff(a3); err != nil {
		t.Fatalf("audit after mutate: %v", err)
	}
	if ep, a, err := lw.Read("nope"); err != nil || a != nil || ep.View("nope") != nil {
		t.Fatalf("Read(unknown view) = %v, %v", a, err)
	}
	if err := reg.DeleteCtx(context.Background(), "phylo"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.Read(""); !hasCode(err, ErrUnknownWorkflow) {
		t.Fatalf("Read on a deleted workflow = %v", err)
	}
}

func TestRegistryCorrectLiveView(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}, {"4", "5"}}}); err != nil {
		t.Fatal(err)
	}
	vc, rep, version, err := lw.Correct(context.Background(), "fig1b", core.Strong, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sound {
		t.Fatal("corrected view must validate sound")
	}
	if version != 2 || vc.CompositesAfter <= vc.CompositesBefore {
		t.Fatalf("correction %+v at version %d", vc, version)
	}
	// Applying the proposal: re-attach the corrected view.
	if _, _, err := lw.AttachViewCtx(context.Background(), "fig1b", func(wf *workflow.Workflow) (*view.View, error) {
		if vc.Corrected.Workflow() != wf {
			return nil, fmt.Errorf("corrected view bound to a stale workflow")
		}
		return vc.Corrected, nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _, err := lw.Report("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sound {
		t.Fatal("re-attached corrected view must stay sound")
	}
	assertLiveReportsFresh(t, lw)
}
