package runs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file holds the shared fixtures for the lineage and ingest
// allocation guards. Each guard lives in two build-tag-gated files with
// the same test name: alloc_norace_test.go asserts the AllocsPerRun
// ceiling (the race runtime's instrumentation allocates on every
// barrier, so the ceiling only means something without -race), and
// alloc_race_test.go runs the same warm operations as a behavioral
// check so `go test -race ./...` still exercises the pooled paths.

// lineageAllocCase is one level of the serve path under guard.
type lineageAllocCase struct {
	name    string
	q       Query
	ceiling float64
}

// lineageAllocStore builds a warm, label-indexed store with one
// ingested run over a layered workflow, and returns it with the sink
// artifact and the guarded query cases.
func lineageAllocStore(t *testing.T) (*Store, []lineageAllocCase) {
	t.Helper()
	const n = 512
	wf := gen.Layered(gen.LayeredConfig{
		Name: "alloc", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: int64(n),
	})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "iv", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 2+n/16, "iv"), nil
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
	wf.Graph().Edges(func(u, v int) {
		doc.Used = append(doc.Used, map[string]any{
			"process": wf.Task(v).ID, "artifact": "a" + wf.Task(u).ID})
	})
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestCtx(context.Background(), "wf", raw); err != nil {
		t.Fatal(err)
	}

	sink := "a" + wf.Task(n-1).ID
	// The ceilings leave slack over the measured ~0–2 for pool misses
	// under GC pressure; 47+ is what the pre-label path cost.
	cases := []lineageAllocCase{
		{"exact", Query{Run: "r", Artifact: sink}, 8},
		{"view", Query{Run: "r", Artifact: sink, Level: LevelView, View: "iv"}, 8},
		{"audited", Query{Run: "r", Artifact: sink, Level: LevelAudited, View: "iv"}, 8},
		{"witness", Query{Run: "r", Artifact: sink, Witness: true}, 8},
	}
	return s, cases
}

// ingestAllocCeiling bounds warm allocations per ingested document, on
// every ingest path and whatever the document's record count: the Run's
// fixed set of objects (struct, run ID, ID string, slab, bitset words,
// canonical document), the RunInfo and the registry's State call — 10
// or 11 per document, 6.4 in a batch of 8 — plus 3 of slack for pool
// misses under GC pressure. The string decoder it replaced made 1,087
// allocations for a 256-artifact document and 4,179 for a
// 1,024-artifact one, and the map-indexed run 17 and 19.
const ingestAllocCeiling = 14

// ingestAllocCase is one ingest path under the allocation guard: op(i)
// ingests input i of a small cycled pool into s; an input holds docs
// documents.
type ingestAllocCase struct {
	name string
	docs int
	s    *Store
	op   func(i int) (infos []RunInfo, err error)
}

// ingestAllocCases returns the JSON, NDJSON, batch-of-8 and RestoreRun
// paths over windowed runs of size artifacts on a layered n=1024
// workflow, each cycling 16 run IDs so ingests replace runs, as a
// long-lived store does.
func ingestAllocCases(t *testing.T, size int) []ingestAllocCase {
	t.Helper()
	const pool = 16
	s, wf := benchStore(t, 1024)
	docs := make([][]byte, pool)
	streams := make([][]byte, pool)
	for i := range docs {
		id := fmt.Sprintf("r%d", i)
		docs[i] = windowRunDoc(wf, id, i*37, size)
		streams[i] = windowRunNDJSON(wf, id, i*37, size)
		if _, err := s.IngestCtx(context.Background(), "wf", docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, canonical := s.SnapshotRuns("wf")
	one := func(info *RunInfo, err error) ([]RunInfo, error) {
		if err != nil {
			return nil, err
		}
		return []RunInfo{*info}, nil
	}
	return []ingestAllocCase{
		{"json", 1, s, func(i int) ([]RunInfo, error) { return one(s.IngestCtx(context.Background(), "wf", docs[i%pool])) }},
		{"ndjson", 1, s, func(i int) ([]RunInfo, error) {
			return one(s.IngestNDJSONCtx(context.Background(), "wf", bytes.NewReader(streams[i%pool])))
		}},
		{"batch=8", 8, s, func(i int) ([]RunInfo, error) {
			j := 8 * i % pool
			return s.IngestBatchCtx(context.Background(), "wf", docs[j:j+8])
		}},
		{"restore", 1, s, func(i int) ([]RunInfo, error) {
			if err := s.RestoreRun("wf", "", canonical[i%pool]); err != nil {
				return nil, err
			}
			info, err := s.Info("wf", fmt.Sprintf("r%d", i%pool))
			return one(info, err)
		}},
	}
}
