package runs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

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
