package runs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/provenance/provenancetest"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// reference recomputes lineage answers from scratch under one
// LiveWorkflow.State call: a fresh task closure (provenance.NewEngine),
// a fresh quotient closure, audit and soundness validation per view
// (NewViewEngine, provenancetest.Reference, ValidateView). It shares no
// index and no audit kernel with the registry, so the label serve path
// and the epoch's audits are pinned to the paper's closure-based
// semantics, not to the incremental structures they read.
type reference struct {
	version uint64
	wf      *workflow.Workflow
	prov    *provenance.Engine
	views   map[string]*refView
}

type refView struct {
	v     *view.View
	ve    *provenance.ViewEngine
	audit *provenancetest.Audit
	sound bool
}

// withReference builds the reference over the live state and hands it
// to fn, all inside one read-locked State call.
func withReference(t *testing.T, lw *engine.LiveWorkflow, fn func(ref *reference)) {
	t.Helper()
	if err := lw.State(func(st *engine.LiveState) error {
		ref := &reference{
			version: st.Version,
			wf:      st.Workflow,
			prov:    provenance.NewEngine(st.Workflow),
			views:   make(map[string]*refView, len(st.Views)),
		}
		oracle := soundness.NewOracle(st.Workflow)
		for _, av := range st.Views {
			ref.views[av.ID] = &refView{
				v:     av.View,
				ve:    provenance.NewViewEngine(av.View),
				audit: provenancetest.Reference(av.View),
				sound: soundness.ValidateView(oracle, av.View).Sound,
			}
		}
		fn(ref)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// answer is the reference run-lineage answer to q: the closure row (or
// the view engine's task set) restricted to the run's invoked tasks,
// plus the audit delta.
func (ref *reference) answer(t *testing.T, workflowID string, run *Run, q Query) *Answer {
	t.Helper()
	ans := &Answer{Workflow: workflowID, Run: q.Run, Artifact: q.Artifact,
		Level: q.Level, Direction: q.Direction, Version: ref.version,
		Tasks: []string{}, Artifacts: []string{}}
	if ans.Level == "" {
		ans.Level = LevelExact
	}
	if ans.Direction == "" {
		ans.Direction = DirAncestors
	}
	var rv *refView
	if ans.Level != LevelExact {
		if rv = ref.views[q.View]; rv == nil {
			t.Fatalf("reference: no view %q", q.View)
		}
		ans.View = q.View
		ans.viewSoundVal = rv.sound
		ans.ViewSound = &ans.viewSoundVal
	}
	ai := run.artIdx[q.Artifact]
	g := run.artGen[ai]
	if g < 0 {
		if ans.Level == LevelAudited {
			ans.soundVal = true
			ans.Sound = &ans.soundVal
		}
		return ans
	}
	home := int(run.procTask[g])
	ans.Producer = ref.wf.Task(home).ID
	anc := ans.Direction == DirAncestors
	var want *bitset.Set
	if rv == nil {
		if want = ref.prov.DescendantSet(home); anc {
			want = ref.prov.LineageSet(home)
		}
	} else {
		hc := rv.v.CompOf(home)
		comps, tasks := rv.ve.CompositeDescendants(hc), rv.ve.TaskDescendants(home)
		spur, miss := rv.audit.SpuriousDownstream[hc], rv.audit.MissingDownstream[hc]
		if anc {
			comps, tasks = rv.ve.CompositeLineage(hc), rv.ve.TaskLineage(home)
			spur, miss = rv.audit.SpuriousUpstream[hc], rv.audit.MissingUpstream[hc]
		}
		for _, ci := range comps {
			ans.Composites = append(ans.Composites, rv.v.Composite(ci).ID)
		}
		want = bitset.New(ref.wf.N())
		for _, u := range tasks {
			want.Set(u)
		}
		if ans.Level == LevelAudited {
			for _, ci := range spur {
				ans.Spurious = append(ans.Spurious, rv.v.Composite(ci).ID)
				for _, m := range rv.v.Composite(ci).Members() {
					if run.inRun(m) {
						ans.SpuriousTasks = append(ans.SpuriousTasks, ref.wf.Task(m).ID)
					}
				}
			}
			for _, ci := range miss {
				ans.Missing = append(ans.Missing, rv.v.Composite(ci).ID)
			}
			ans.soundVal = len(spur) == 0 && len(miss) == 0
			ans.Sound = &ans.soundVal
		}
	}
	want.ForEach(func(u int) bool {
		if u != home && run.inRun(u) {
			ans.Tasks = append(ans.Tasks, ref.wf.Task(u).ID)
		}
		return true
	})
	for i, g := range run.artGen {
		if g >= 0 {
			if u := int(run.procTask[g]); u != home && want.Test(u) {
				ans.Artifacts = append(ans.Artifacts, run.artID[i])
			}
		}
	}
	if q.Witness {
		ans.Witness = run.appendWitness(nil, ai)
	}
	return ans
}

// viewLineage is the reference LiveWorkflow.Lineage result.
func (ref *reference) viewLineage(t *testing.T, vid, taskID string) *engine.LineageResult {
	t.Helper()
	rv := ref.views[vid]
	task := ref.wf.MustIndex(taskID)
	exact, viewed := ref.prov.Lineage(task), rv.ve.TaskLineage(task)
	res := &engine.LineageResult{Task: taskID, Version: ref.version, ViewSound: rv.sound,
		WorkflowLineage: make([]string, 0, len(exact)), ViewLineage: make([]string, 0, len(viewed))}
	inExact := bitset.New(ref.wf.N())
	for _, u := range exact {
		inExact.Set(u)
		res.WorkflowLineage = append(res.WorkflowLineage, ref.wf.Task(u).ID)
	}
	for _, u := range viewed {
		res.ViewLineage = append(res.ViewLineage, ref.wf.Task(u).ID)
		if !inExact.Test(u) {
			res.FalsePositives = append(res.FalsePositives, ref.wf.Task(u).ID)
		}
	}
	for _, ci := range rv.ve.CompositeLineage(rv.v.CompOf(task)) {
		res.CompositeLineage = append(res.CompositeLineage, rv.v.Composite(ci).ID)
	}
	return res
}

// compareLineage pins every query of qs, served through the public
// LineageCtx, to the reference answer byte for byte on the wire
// (AppendJSON, so field order, omitempty and pointer-bool behaviour are
// pinned too), and LiveWorkflow.Lineage for each (view, task) pair in
// viewTasks to the reference result. It returns how many view lineage
// results carried false positives.
func compareLineage(t *testing.T, s *Store, lw *engine.LiveWorkflow, runID string, qs []Query, viewTasks [][2]string) (falsePositives int) {
	t.Helper()
	_, run, err := s.lookup(lw.ID(), runID)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	var wantViews []*engine.LineageResult
	withReference(t, lw, func(ref *reference) {
		// The epoch's audit of every view, the one audited answers
		// attach, agrees with the reference in every count and pair.
		for vid, rv := range ref.views {
			ep, a, err := lw.Read(vid)
			if err != nil || ep.Version() != ref.version {
				t.Fatalf("Read(%s) at version %d: %v", vid, ref.version, err)
			}
			if err := rv.audit.Diff(a); err != nil {
				t.Fatalf("view %s at version %d: epoch audit: %v", vid, ref.version, err)
			}
		}
		for _, q := range qs {
			want = append(want, ref.answer(t, lw.ID(), run, q).AppendJSON(nil))
		}
		for _, vt := range viewTasks {
			wantViews = append(wantViews, ref.viewLineage(t, vt[0], vt[1]))
		}
	})
	var buf []byte
	for i, q := range qs {
		got, err := s.LineageCtx(context.Background(), lw.ID(), q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		buf = got.AppendJSON(buf[:0])
		if string(buf) != string(want[i]) {
			t.Fatalf("%+v:\nserved:    %s\nreference: %s", q, buf, want[i])
		}
		got.Release()
	}
	for i, vt := range viewTasks {
		got, err := lw.Lineage(vt[0], vt[1])
		if err != nil {
			t.Fatalf("Lineage(%s, %s): %v", vt[0], vt[1], err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(wantViews[i])
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("Lineage(%s, %s):\nserved:    %s\nreference: %s", vt[0], vt[1], gotJSON, wantJSON)
		}
		if len(got.FalsePositives) > 0 {
			falsePositives++
		}
	}
	return falsePositives
}

// levelQueries expands one artifact into every level × direction ×
// witness combination over views.
func levelQueries(runID, art string, views []string) []Query {
	qs := []Query{
		{Run: runID, Artifact: art},
		{Run: runID, Artifact: art, Direction: DirDescendants},
		{Run: runID, Artifact: art, Witness: true},
	}
	for _, vid := range views {
		for _, level := range []string{LevelView, LevelAudited} {
			qs = append(qs,
				Query{Run: runID, Artifact: art, Level: level, View: vid},
				Query{Run: runID, Artifact: art, Level: level, View: vid, Direction: DirDescendants},
				Query{Run: runID, Artifact: art, Level: level, View: vid, Witness: true},
			)
		}
	}
	return qs
}

// TestLabelAnswersMatchClosureRows is the equivalence property behind
// the label-indexed serve path: over a long random mutation history —
// edge insertions (including rejected cycles), task growth, view
// attach/detach, runs ingested mid-stream — every lineage query served
// from the epoch labels must be byte-identical to the from-scratch
// closure reference, at every level and direction, witness included,
// and so must LiveWorkflow.Lineage through sound and unsound views.
func TestLabelAnswersMatchClosureRows(t *testing.T) {
	const (
		tasks     = 90
		mutations = 1100
	)
	rng := rand.New(rand.NewSource(7))
	wf := gen.Layered(gen.LayeredConfig{
		Name: "equiv", Tasks: tasks, Layers: 9, EdgeProb: 0.08, SkipProb: 0.02, Seed: 7,
	})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg)

	ids := make([]string, 0, tasks+mutations)
	for i := 0; i < wf.N(); i++ {
		ids = append(ids, wf.Task(i).ID)
	}

	// Two resident views: a clean partition and one with injected
	// unsound merges, so the quotient labels also cover cyclic
	// condensations and spurious/missing audit deltas.
	viewSeq := 0
	attach := func(unsound bool) string {
		vid := fmt.Sprintf("v%d", viewSeq)
		seed := int64(viewSeq)
		viewSeq++
		if _, _, err := lw.AttachViewCtx(context.Background(), vid, func(wf *workflow.Workflow) (*view.View, error) {
			v := gen.RandomView(wf, 8+int(seed)%5, seed, vid)
			if unsound {
				v = gen.InjectUnsound(v, 3, seed)
			}
			return v, nil
		}); err != nil {
			t.Fatal(err)
		}
		return vid
	}
	views := []string{attach(false), attach(true)}

	// runDoc invokes a random subset of the current tasks, one artifact
	// each, a used edge per consecutive invoked pair, plus one external
	// input artifact (never generated) to exercise the gen<0 branch.
	runSeq := 0
	ingest := func() (string, []string) {
		runID := fmt.Sprintf("r%d", runSeq)
		runSeq++
		doc := struct {
			Run       string           `json:"run"`
			Artifacts []map[string]any `json:"artifacts"`
			Used      []map[string]any `json:"used"`
		}{Run: runID}
		var arts []string
		var prev string
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				continue
			}
			art := "a:" + runID + ":" + id
			doc.Artifacts = append(doc.Artifacts, map[string]any{"id": art, "generated_by": id})
			if prev != "" && rng.Intn(2) == 0 {
				doc.Used = append(doc.Used, map[string]any{"process": id, "artifact": prev})
			}
			prev = art
			arts = append(arts, art)
		}
		if prev != "" {
			// The last producer also consumes an external input (declared
			// with no generated_by).
			ext := "ext:" + runID
			doc.Artifacts = append(doc.Artifacts, map[string]any{"id": ext})
			doc.Used = append(doc.Used, map[string]any{
				"process": doc.Artifacts[len(doc.Artifacts)-2]["generated_by"], "artifact": ext})
			arts = append(arts, ext)
		}
		raw, merr := json.Marshal(doc)
		if merr != nil {
			t.Fatal(merr)
		}
		if _, ierr := s.IngestCtx(context.Background(), "wf", raw); ierr != nil {
			t.Fatal(ierr)
		}
		return runID, arts
	}
	runID, arts := ingest()

	compared, falsePositives := 0, 0
	check := func() {
		qs := levelQueries(runID, arts[rng.Intn(len(arts))], views)
		var viewTasks [][2]string
		for _, vid := range views {
			for i := 0; i < 2; i++ {
				viewTasks = append(viewTasks, [2]string{vid, ids[rng.Intn(len(ids))]})
			}
		}
		falsePositives += compareLineage(t, s, lw, runID, qs, viewTasks)
		compared += len(qs) + len(viewTasks)
	}

	grown := 0
	for step := 0; step < mutations; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // random edge; cycle rejections roll back (also covered)
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if _, merr := lw.MutateCtx(context.Background(), engine.Mutation{Edges: [][2]string{{u, v}}}); merr != nil {
				var ee *engine.Error
				if !errors.As(merr, &ee) || (ee.Code != engine.ErrCycleRejected && ee.Code != engine.ErrBadInput) {
					t.Fatalf("step %d: mutate(%s->%s): %v", step, u, v, merr)
				}
			}
		case op < 80: // grow the task space, usually wired to an existing task
			id := fmt.Sprintf("g%d", grown)
			grown++
			m := engine.Mutation{Tasks: []workflow.Task{{ID: id}}}
			if rng.Intn(4) > 0 {
				m.Edges = [][2]string{{ids[rng.Intn(len(ids))], id}}
			}
			if _, merr := lw.MutateCtx(context.Background(), m); merr != nil {
				t.Fatalf("step %d: grow %s: %v", step, id, merr)
			}
			ids = append(ids, id)
		case op < 88: // churn a view: detach the oldest, attach a fresh one
			if derr := lw.DetachViewCtx(context.Background(), views[0]); derr != nil {
				t.Fatalf("step %d: detach %s: %v", step, views[0], derr)
			}
			views = append(views[1:], attach(rng.Intn(2) == 0))
		default: // ingest a fresh run over the grown task space
			runID, arts = ingest()
		}
		if step%3 == 0 {
			check()
		}
	}
	if falsePositives == 0 {
		t.Fatal("no view lineage result carried false positives; the unsound views are not exercised")
	}
	t.Logf("compared %d answers over %d mutations (%d view results with false positives)",
		compared, mutations, falsePositives)
}

// TestOverBudgetLineageMatchesReference serves a workflow whose
// reachability cover is over the interval budget in both directions —
// two layers of 1024 tasks at edge probability 0.5, 524k edges — so its
// task-level label indexes hold bitmap rows. Every level and direction,
// and LiveWorkflow.Lineage, must still match the from-scratch
// reference, and each task-level index must stay within about one
// closure matrix (n²/8 bytes).
func TestOverBudgetLineageMatchesReference(t *testing.T) {
	wf := gen.Layered(gen.LayeredConfig{Name: "dense", Tasks: 2048, Layers: 2, EdgeProb: 0.5, Seed: 1})
	n := wf.N()
	for _, g := range []*dag.Graph{wf.Graph(), wf.Graph().Reversed()} {
		if l := dag.BuildLabels(g); l == nil || l.Intervals() != 0 {
			t.Fatalf("BuildLabels = %v; want a bitmap index for an over-budget graph", l)
		}
	}
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "dense", wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "iv", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 24, "iv"), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	doc := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: "r"}
	var ids []string
	for i := 0; i < n; i += 3 {
		id := wf.Task(i).ID
		ids = append(ids, id)
		doc.Artifacts = append(doc.Artifacts, map[string]any{"id": "a" + id, "generated_by": id})
		if i > 0 {
			doc.Used = append(doc.Used, map[string]any{"process": id, "artifact": "a" + wf.Task(i-3).ID})
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestCtx(context.Background(), "dense", raw); err != nil {
		t.Fatal(err)
	}

	ep, _, err := lw.Read("")
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(n)*int64(n)/8 + 64*int64(n)
	for name, l := range map[string]*dag.Labels{"forward": ep.Labels(), "reverse": ep.RevLabels()} {
		if l.MemoryBytes() > bound {
			t.Fatalf("%s task index holds %d bytes, over n²/8 + O(n) = %d", name, l.MemoryBytes(), bound)
		}
	}

	rng := rand.New(rand.NewSource(3))
	var qs []Query
	var viewTasks [][2]string
	for _, id := range []string{ids[0], ids[len(ids)/2], ids[len(ids)-1], ids[rng.Intn(len(ids))]} {
		qs = append(qs, levelQueries("r", "a"+id, []string{"iv"})...)
		viewTasks = append(viewTasks, [2]string{"iv", id})
	}
	compareLineage(t, s, lw, "r", qs, viewTasks)
}

// TestEpochReadsUnderMutation hammers the public lineage paths (run
// lineage and LiveWorkflow.Lineage) from concurrent readers while a
// writer churns edges, tasks and views — the race detector checks the
// epoch publication protocol, and every read must still come back
// well-formed (or ErrUnknownView during a detach window).
func TestEpochReadsUnderMutation(t *testing.T) {
	wf := gen.Layered(gen.LayeredConfig{
		Name: "epoch", Tasks: 64, Layers: 8, EdgeProb: 0.1, Seed: 11,
	})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "iv", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 8, "iv"), nil
	}); err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	doc := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: "r"}
	for i := 0; i < wf.N(); i++ {
		doc.Artifacts = append(doc.Artifacts, map[string]any{
			"id": "a" + wf.Task(i).ID, "generated_by": wf.Task(i).ID})
	}
	raw, _ := json.Marshal(doc)
	if _, err := s.IngestCtx(context.Background(), "wf", raw); err != nil {
		t.Fatal(err)
	}

	// Snapshot the queryable artifacts up front: the mutator grows wf in
	// place, so readers must not touch it concurrently.
	artNames := make([]string, wf.N())
	for i := range artNames {
		artNames[i] = "a" + wf.Task(i).ID
	}
	taskIDs := make([]string, wf.N())
	for i := range taskIDs {
		taskIDs[i] = wf.Task(i).ID
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if rng.Intn(4) == 0 {
					// The view lineage endpoint reads the same epochs.
					task := taskIDs[rng.Intn(len(taskIDs))]
					res, lerr := lw.Lineage("iv", task)
					if lerr != nil && !engine.IsCode(lerr, engine.ErrUnknownView) {
						errs <- fmt.Errorf("reader %d: %w", g, lerr)
						return
					}
					if lerr == nil && res.Task != task {
						errs <- fmt.Errorf("reader %d: torn view lineage %+v", g, res)
						return
					}
					continue
				}
				q := Query{Run: "r", Artifact: artNames[rng.Intn(len(artNames))]}
				switch rng.Intn(3) {
				case 1:
					q.Level, q.View = LevelView, "iv"
				case 2:
					q.Level, q.View = LevelAudited, "iv"
				}
				ans, qerr := s.LineageCtx(context.Background(), "wf", q)
				if qerr != nil {
					var ee *engine.Error
					if errors.As(qerr, &ee) && ee.Code == engine.ErrUnknownView {
						continue // detach window
					}
					errs <- fmt.Errorf("reader %d: %w", g, qerr)
					return
				}
				if ans.Run != "r" || ans.Level == "" {
					errs <- fmt.Errorf("reader %d: torn answer %+v", g, ans)
					return
				}
				ans.Release()
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0:
			_ = lw.DetachViewCtx(context.Background(), "iv")
			if _, _, err := lw.AttachViewCtx(context.Background(), "iv", func(wf *workflow.Workflow) (*view.View, error) {
				return gen.IntervalView(wf, 8, "iv"), nil
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			id := fmt.Sprintf("m%d", step)
			if _, err := lw.MutateCtx(context.Background(), engine.Mutation{Tasks: []workflow.Task{{ID: id}}}); err != nil {
				t.Fatal(err)
			}
		default:
			u := taskIDs[rng.Intn(len(taskIDs))]
			v := taskIDs[rng.Intn(len(taskIDs))]
			_, _ = lw.MutateCtx(context.Background(), engine.Mutation{Edges: [][2]string{{u, v}}}) // cycles roll back
		}
	}
	close(stop)
	for g := 0; g < 4; g++ {
		if rerr := <-errs; rerr != nil {
			t.Fatal(rerr)
		}
	}
}
