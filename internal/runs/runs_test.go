package runs

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/repo"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// figure1Store registers the Figure 1 workflow (with the fig1b view
// attached) into a fresh registry and returns a run store over it.
func figure1Store(t *testing.T) (*Store, *engine.Registry) {
	t.Helper()
	wf, v := repo.Figure1()
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "phylo", wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "fig1b", func(*workflow.Workflow) (*view.View, error) {
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
	return New(reg), reg
}

// figure1RunDoc builds the canonical test trace: one artifact a<i> per
// task, used edges along the workflow edges, processes named by task
// (implicit invocations).
func figure1RunDoc(runID string) []byte {
	wf, _ := repo.Figure1()
	w := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: runID}
	for i := 0; i < wf.N(); i++ {
		w.Artifacts = append(w.Artifacts, map[string]any{
			"id": "a" + wf.Task(i).ID, "generated_by": wf.Task(i).ID,
		})
	}
	for _, e := range wf.Edges() {
		w.Used = append(w.Used, map[string]any{"process": e[1], "artifact": "a" + e[0]})
	}
	doc, err := json.Marshal(w)
	if err != nil {
		panic(err)
	}
	return doc
}

func TestIngestAndLineageLevels(t *testing.T) {
	s, _ := figure1Store(t)
	info, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Run != "r1" || info.Artifacts != 12 || info.Invocations != 12 ||
		info.UsedEdges != 12 || info.TasksInvoked != 12 || info.Replaced {
		t.Fatalf("info = %+v", info)
	}

	// Exact: the provenance of a8 is the outputs of tasks 1,2,6,7 — and
	// NOT a3, the paper's point.
	ans, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Producer != "8" || ans.Level != LevelExact || ans.Direction != DirAncestors {
		t.Fatalf("answer header = %+v", ans)
	}
	if !reflect.DeepEqual(ans.Tasks, []string{"1", "2", "6", "7"}) {
		t.Fatalf("exact tasks = %v", ans.Tasks)
	}
	if !reflect.DeepEqual(ans.Artifacts, []string{"a1", "a2", "a6", "a7"}) {
		t.Fatalf("exact artifacts = %v", ans.Artifacts)
	}
	if ans.Sound != nil || ans.ViewSound != nil || len(ans.Spurious) != 0 {
		t.Fatalf("exact answer must carry no view fields: %+v", ans)
	}

	// View level: the fig1b user wrongly sees a3 upstream of a8.
	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8", Level: LevelView, View: "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.ViewSound == nil || *ans.ViewSound {
		t.Fatalf("fig1b must be unsound: %+v", ans)
	}
	if !reflect.DeepEqual(ans.Composites, []string{"13", "14", "15", "16"}) {
		t.Fatalf("view composites = %v", ans.Composites)
	}
	if !contains(ans.Tasks, "3") || !contains(ans.Artifacts, "a3") {
		t.Fatalf("view answer must contain the false positive 3/a3: %v %v", ans.Tasks, ans.Artifacts)
	}

	// Audited: the same answer now names composite 14 as spurious.
	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8", Level: LevelAudited, View: "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Sound == nil || *ans.Sound {
		t.Fatalf("audited answer must be unsound: %+v", ans)
	}
	if !reflect.DeepEqual(ans.Spurious, []string{"14"}) {
		t.Fatalf("spurious = %v, want [14]", ans.Spurious)
	}
	if !reflect.DeepEqual(ans.SpuriousTasks, []string{"3"}) {
		t.Fatalf("spurious tasks = %v, want [3]", ans.SpuriousTasks)
	}
	if len(ans.Missing) != 0 {
		t.Fatalf("quotient views never miss provenance: %v", ans.Missing)
	}

	// Audited on a composite with no spurious upstream answers sound:
	// every composite truly feeds 19 (task 12 is the global sink).
	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a12", Level: LevelAudited, View: "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Sound == nil || !*ans.Sound {
		t.Fatalf("lineage of a12 should have no spurious composites: %+v", ans)
	}
}

func TestLineageDescendantsAndWitness(t *testing.T) {
	s, _ := figure1Store(t)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	ans, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a9", Direction: DirDescendants})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ans.Tasks, []string{"10", "11", "12"}) {
		t.Fatalf("descendants of a9 = %v", ans.Tasks)
	}

	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8", Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	// Why-provenance of a8: the chain 1→2→6→7→8 — 5 generated + 4 used.
	var gen, used int
	for _, e := range ans.Witness {
		switch e.Relation {
		case "wasGeneratedBy":
			gen++
		case "used":
			used++
		default:
			t.Fatalf("unknown relation %q", e.Relation)
		}
	}
	if gen != 5 || used != 4 {
		t.Fatalf("witness = %d generated + %d used, want 5 + 4 (%v)", gen, used, ans.Witness)
	}

	// View-level descendants: composite impact of a2's home (13).
	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a2", Level: LevelView, View: "fig1b", Direction: DirDescendants})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ans.Composites, "19") || contains(ans.Composites, "13") {
		t.Fatalf("view descendants of a2 = %v", ans.Composites)
	}
}

func TestExternalInputArtifact(t *testing.T) {
	s, _ := figure1Store(t)
	doc := []byte(`{"run":"r2","artifacts":[{"id":"input"},{"id":"out","generated_by":"1"}],
		"used":[{"process":"1","artifact":"input"}]}`)
	if _, err := s.IngestCtx(context.Background(), "phylo", doc); err != nil {
		t.Fatal(err)
	}
	ans, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "r2", Artifact: "input", Level: LevelAudited, View: "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Producer != "" || len(ans.Tasks) != 0 || len(ans.Artifacts) != 0 {
		t.Fatalf("external input must answer empty: %+v", ans)
	}
	if ans.ViewSound == nil || ans.Sound == nil || !*ans.Sound {
		t.Fatalf("external input audited flags: %+v", ans)
	}
	// The produced artifact's witness reaches back to the external input.
	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r2", Artifact: "out", Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ans.Witness {
		if e.Relation == "used" && e.Artifact == "input" {
			found = true
		}
	}
	if !found {
		t.Fatalf("witness must include the external input: %v", ans.Witness)
	}
}

func TestReplaceAndList(t *testing.T) {
	s, _ := figure1Store(t)
	ingested0 := obs.MIngestRuns.Value()
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	info, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Replaced {
		t.Fatal("second ingestion of r1 must report Replaced")
	}
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r2")); err != nil {
		t.Fatal(err)
	}
	infos, err := s.Runs("phylo")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Run != "r1" || infos[1].Run != "r2" {
		t.Fatalf("runs = %+v", infos)
	}
	st := s.Stats()
	if st.Runs != 2 || st.DocBytes != infos[0].Bytes+infos[1].Bytes {
		t.Fatalf("stats = %+v, runs = %+v", st, infos)
	}
	// The running totals drop the replaced run's bytes.
	_, r1, _ := s.lookup("phylo", "r1")
	_, r2, _ := s.lookup("phylo", "r2")
	if st.MemoryBytes != r1.memoryBytes()+r2.memoryBytes() {
		t.Fatalf("stats = %+v, want MemoryBytes %d", st, r1.memoryBytes()+r2.memoryBytes())
	}
	if infos[0].Artifacts+infos[1].Artifacts != 24 {
		t.Fatalf("artifacts = %d, want 24", infos[0].Artifacts+infos[1].Artifacts)
	}
	// Lifetime ingests, the replacement included, count on /metrics.
	if got := obs.MIngestRuns.Value() - ingested0; got != 3 {
		t.Fatalf("wolves_ingest_runs_total grew by %d, want 3", got)
	}
}

func TestRunsDieWithRegistration(t *testing.T) {
	s, reg := figure1Store(t)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	// Re-register the same ID: the old registration's runs must not
	// survive onto the new one.
	wf2, _ := repo.Figure1()
	if _, err := reg.RegisterCtx(context.Background(), "phylo", wf2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8"}); !engine.IsCode(err, engine.ErrUnknownRun) {
		t.Fatalf("stale run must be unknown after re-registration, got %v", err)
	}
	if infos, err := s.Runs("phylo"); err != nil || len(infos) != 0 {
		t.Fatalf("runs after re-registration = %v, %v", infos, err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("a replaced registration's runs must be gone: %+v", st)
	}
	// Deleting the workflow makes even the list 404.
	if err := reg.DeleteCtx(context.Background(), "phylo"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Runs("phylo"); !engine.IsCode(err, engine.ErrUnknownWorkflow) {
		t.Fatalf("runs list after delete: %v", err)
	}
}

// residentRun returns a weak pointer to run id in workflowID's shard.
func residentRun(t *testing.T, s *Store, workflowID, id string) weak.Pointer[Run] {
	t.Helper()
	s.mu.Lock()
	sh := s.shards[workflowID]
	s.mu.Unlock()
	if sh == nil {
		t.Fatalf("no shard for %q", workflowID)
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r := sh.runs[id]
	if r == nil {
		t.Fatalf("no run %q on %q", id, workflowID)
	}
	return weak.Make(r)
}

// TestDeadRegistrationFreesRuns: a registration that dies — deleted,
// evicted or replaced — drops its runs at once, without a Stats call or
// a later touch of its ID, so a daemon nobody scrapes does not keep
// them.
func TestDeadRegistrationFreesRuns(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		kill func(t *testing.T, reg *engine.Registry)
	}{
		{"delete", func(t *testing.T, reg *engine.Registry) {
			if err := reg.DeleteCtx(ctx, "phylo"); err != nil {
				t.Fatal(err)
			}
		}},
		{"evict", func(t *testing.T, reg *engine.Registry) {
			wf, _ := repo.Figure1()
			if _, err := reg.RegisterCtx(ctx, "other", wf); err != nil {
				t.Fatal(err)
			}
		}},
		{"replace", func(t *testing.T, reg *engine.Registry) {
			wf, _ := repo.Figure1()
			if _, err := reg.RegisterCtx(ctx, "phylo", wf); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := engine.NewRegistry(engine.New(), engine.WithRegistryCapacity(1))
			wf, _ := repo.Figure1()
			if _, err := reg.RegisterCtx(ctx, "phylo", wf); err != nil {
				t.Fatal(err)
			}
			s := New(reg)
			if _, err := s.IngestCtx(ctx, "phylo", figure1RunDoc("r1")); err != nil {
				t.Fatal(err)
			}
			run := residentRun(t, s, "phylo", "r1")
			c.kill(t, reg)
			runtime.GC()
			runtime.GC()
			if run.Value() != nil {
				t.Fatal("the dead registration's run is still reachable")
			}
			// The store and registry stay live: only the shard may go.
			runtime.KeepAlive(s)
			runtime.KeepAlive(reg)
		})
	}
}

func TestLineageBatch(t *testing.T) {
	s, _ := figure1Store(t)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	qs := []Query{
		{Run: "r1", Artifact: "a8"},
		{Run: "r1", Artifact: "a8", Level: LevelAudited, View: "fig1b"},
		{Run: "r1", Artifact: "ghost"},
		{Run: "nope", Artifact: "a8"},
		{Run: "r1", Artifact: "a8", Level: "bogus"},
	}
	results, err := s.LineageBatch(context.Background(), "phylo", qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Answer == nil {
		t.Fatalf("result 0 = %+v", results[0])
	}
	if results[1].Answer == nil || results[1].Answer.Sound == nil || *results[1].Answer.Sound {
		t.Fatalf("result 1 = %+v", results[1])
	}
	if results[2].Err == nil || results[2].Err.Code != engine.ErrUnknownArtifact {
		t.Fatalf("result 2 = %+v", results[2])
	}
	if results[3].Err == nil || results[3].Err.Code != engine.ErrUnknownRun {
		t.Fatalf("result 3 = %+v", results[3])
	}
	if results[4].Err == nil || results[4].Err.Code != engine.ErrBadInput {
		t.Fatalf("result 4 = %+v", results[4])
	}
	// Batch-level failures: unknown workflow, empty batch.
	if _, err := s.LineageBatch(context.Background(), "ghost", qs, 0); !engine.IsCode(err, engine.ErrUnknownWorkflow) {
		t.Fatalf("unknown workflow batch: %v", err)
	}
	if _, err := s.LineageBatch(context.Background(), "phylo", nil, 0); !engine.IsCode(err, engine.ErrBadInput) {
		t.Fatalf("empty batch: %v", err)
	}
	// A canceled context marks every result ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err = s.LineageBatch(ctx, "phylo", qs[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil || r.Err.Code != engine.ErrCanceled {
			t.Fatalf("canceled result %d = %+v", i, r)
		}
	}
}

func TestNDJSONEquivalence(t *testing.T) {
	s, _ := figure1Store(t)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("doc")); err != nil {
		t.Fatal(err)
	}

	// The same trace as an NDJSON stream.
	wf, _ := repo.Figure1()
	var sb strings.Builder
	sb.WriteString(`{"run":"nd"}` + "\n")
	for i := 0; i < wf.N(); i++ {
		fmt.Fprintf(&sb, `{"artifact":{"id":"a%s","generated_by":"%s"}}`+"\n", wf.Task(i).ID, wf.Task(i).ID)
	}
	for _, e := range wf.Edges() {
		fmt.Fprintf(&sb, `{"used":{"process":"%s","artifact":"a%s"}}`+"\n", e[1], e[0])
	}
	info, err := s.IngestNDJSONCtx(context.Background(), "phylo", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Run != "nd" || info.Artifacts != 12 || info.UsedEdges != 12 {
		t.Fatalf("ndjson info = %+v", info)
	}

	// Answers over both ingestion paths must be identical (modulo run ID).
	a1, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "doc", Artifact: "a8", Level: LevelAudited, View: "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "nd", Artifact: "a8", Level: LevelAudited, View: "fig1b"})
	if err != nil {
		t.Fatal(err)
	}
	a2.Run = a1.Run
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("NDJSON answer diverges:\n%+v\n%+v", a1, a2)
	}
}

// TestLineageTracksMutation pins that answers read the live closure: a
// mutation changing reachability immediately changes lineage answers,
// including the audited delta.
func TestLineageTracksMutation(t *testing.T) {
	wf, _ := repo.Figure1()
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "phylo", wf)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	ans, err := s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8"})
	if err != nil {
		t.Fatal(err)
	}
	if contains(ans.Tasks, "3") {
		t.Fatal("3 must not reach 8 before the mutation")
	}
	if _, err := lw.MutateCtx(context.Background(), engine.Mutation{Edges: [][2]string{{"3", "7"}}}); err != nil {
		t.Fatal(err)
	}
	ans, err = s.LineageCtx(context.Background(), "phylo", Query{Run: "r1", Artifact: "a8"})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(ans.Tasks, "3") || ans.Version != 2 {
		t.Fatalf("after 3→7 the exact lineage of a8 must include 3 at version 2: %+v", ans)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
