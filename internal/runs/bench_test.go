package runs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// benchStore registers a layered n-task workflow with an interval view
// and returns a run store over it.
func benchStore(b testing.TB, n int) (*Store, *workflow.Workflow) {
	b.Helper()
	wf := gen.Layered(gen.LayeredConfig{
		Name: fmt.Sprintf("bench-%d", n), Tasks: n, Layers: 16,
		EdgeProb: 0.05, SkipProb: 0.01, Seed: int64(n),
	})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.RegisterCtx(context.Background(), "wf", wf)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "iv", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 2+n/16, "iv"), nil
	}); err != nil {
		b.Fatal(err)
	}
	return New(reg), wf
}

// windowRunDoc encodes a run invoking a window of tasks as a chain:
// every task produces one artifact consumed by the next. Invocations are
// implicit and artifact k is <run>.<k>, as wolvesbench's windowRun has
// them.
func windowRunDoc(wf *workflow.Workflow, runID string, start, size int) []byte {
	doc := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: runID}
	n := wf.N()
	for k := 0; k < size; k++ {
		task := wf.Task((start + k) % n).ID
		doc.Artifacts = append(doc.Artifacts, map[string]any{
			"id": fmt.Sprintf("%s.%d", runID, k), "generated_by": task,
		})
		if k > 0 {
			doc.Used = append(doc.Used, map[string]any{
				"process": task, "artifact": fmt.Sprintf("%s.%d", runID, k-1),
			})
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return raw
}

// fullRunDoc encodes one full execution: an artifact per task, used
// edges along every workflow edge (implicit invocations).
func fullRunDoc(wf *workflow.Workflow, runID string) []byte {
	doc := struct {
		Run       string           `json:"run"`
		Artifacts []map[string]any `json:"artifacts"`
		Used      []map[string]any `json:"used"`
	}{Run: runID}
	for i := 0; i < wf.N(); i++ {
		doc.Artifacts = append(doc.Artifacts, map[string]any{
			"id": "a" + wf.Task(i).ID, "generated_by": wf.Task(i).ID,
		})
	}
	wf.Graph().Edges(func(u, v int) {
		doc.Used = append(doc.Used, map[string]any{
			"process": wf.Task(v).ID, "artifact": "a" + wf.Task(u).ID,
		})
	})
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return raw
}

// windowRunNDJSON is windowRunDoc as an NDJSON stream: the run record,
// then one record per artifact and per used edge.
func windowRunNDJSON(wf *workflow.Workflow, runID string, start, size int) []byte {
	var out []byte
	line := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out = append(append(out, raw...), '\n')
	}
	line(map[string]any{"run": runID})
	n := wf.N()
	for k := 0; k < size; k++ {
		task := wf.Task((start + k) % n).ID
		line(map[string]any{"artifact": map[string]any{
			"id": fmt.Sprintf("%s.%d", runID, k), "generated_by": task}})
		if k > 0 {
			line(map[string]any{"used": map[string]any{
				"process": task, "artifact": fmt.Sprintf("%s.%d", runID, k-1)}})
		}
	}
	return out
}

// BenchmarkIngest measures steady-state trace ingestion of one run
// invoking a quarter of the workflow — the record count scales with n so
// per-op cost is comparable across sizes (a fixed window made n=4096
// look cheaper than n=1024: same trace bytes, larger task space). Each
// variant cycles a pool of distinct runs, so long bench runs replace
// instead of accumulating:
//
//   - n=…: one JSON document per op;
//   - ndjson/n=…: one NDJSON stream per op;
//   - batch=8/n=…: one IngestBatch of 8 JSON documents per op;
//   - restore/n=…: one RestoreRun of a binary canonical document per op,
//     as recovery replays it.
//
// Per-op cost covers decode, task-space validation, dense interning and
// shard insertion, plus the canonical encode everywhere but restore.
func BenchmarkIngest(b *testing.B) {
	const pool = 1024
	// bench runs op over a pool of inputs made by mk; prep, when set,
	// turns the pool into op's inputs first. perOp documents make one op.
	bench := func(name string, perOp int, mk func(wf *workflow.Workflow, runID string, start, size int) []byte,
		prep func(s *Store, in [][]byte) [][]byte, op func(s *Store, in [][]byte, i int) error) {
		for _, n := range []int{1024, 4096} {
			b.Run(fmt.Sprintf("%sn=%d", name, n), func(b *testing.B) {
				s, wf := benchStore(b, n)
				in := make([][]byte, pool)
				for i := range in {
					in[i] = mk(wf, fmt.Sprintf("r%d", i), i*37, n/4)
				}
				if prep != nil {
					in = prep(s, in)
				}
				total := 0
				for _, d := range in {
					total += len(d)
				}
				b.SetBytes(int64(perOp * total / pool))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(s, in, i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	bench("", 1, windowRunDoc, nil, func(s *Store, in [][]byte, i int) error {
		_, err := s.IngestCtx(context.Background(), "wf", in[i%pool])
		return err
	})
	bench("ndjson/", 1, windowRunNDJSON, nil, func(s *Store, in [][]byte, i int) error {
		_, err := s.IngestNDJSONCtx(context.Background(), "wf", bytes.NewReader(in[i%pool]))
		return err
	})
	bench("batch=8/", 8, windowRunDoc, nil, func(s *Store, in [][]byte, i int) error {
		j := 8 * i % pool
		_, err := s.IngestBatchCtx(context.Background(), "wf", in[j:j+8])
		return err
	})
	bench("restore/", 1, windowRunDoc, func(s *Store, in [][]byte) [][]byte {
		for _, doc := range in {
			if _, err := s.IngestCtx(context.Background(), "wf", doc); err != nil {
				b.Fatal(err)
			}
		}
		_, docs := s.SnapshotRuns("wf")
		return docs
	}, func(s *Store, in [][]byte, i int) error {
		return s.RestoreRun("wf", "", in[i%pool])
	})
}

// BenchmarkLineageQuery contrasts the three answer levels over one full
// run — the paper's motivation for views: the composite-level closure
// answers far cheaper than the task-level one, and the audited level
// adds only the cached per-composite delta on top.
func BenchmarkLineageQuery(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		s, wf := benchStore(b, n)
		if _, err := s.IngestCtx(context.Background(), "wf", fullRunDoc(wf, "full")); err != nil {
			b.Fatal(err)
		}
		sink := "a" + wf.Task(n-1).ID
		queries := map[string]Query{
			"exact":   {Run: "full", Artifact: sink},
			"view":    {Run: "full", Artifact: sink, Level: LevelView, View: "iv"},
			"audited": {Run: "full", Artifact: sink, Level: LevelAudited, View: "iv"},
		}
		for _, level := range []string{"exact", "view", "audited"} {
			q := queries[level]
			// Warm the cached view engine / audit outside the timer.
			if _, err := s.LineageCtx(context.Background(), "wf", q); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("level=%s/n=%d", level, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ans, err := s.LineageCtx(context.Background(), "wf", q)
					if err != nil {
						b.Fatal(err)
					}
					ans.Release()
				}
			})
		}
	}
}

// BenchmarkLineageServe measures the full wire path per answer: query,
// stream-encode through the reusable encoder, release to the pool —
// what the HTTP handler does per request, minus the socket.
func BenchmarkLineageServe(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		s, wf := benchStore(b, n)
		if _, err := s.IngestCtx(context.Background(), "wf", fullRunDoc(wf, "full")); err != nil {
			b.Fatal(err)
		}
		sink := "a" + wf.Task(n-1).ID
		for _, level := range []string{"exact", "view", "audited"} {
			q := Query{Run: "full", Artifact: sink}
			if level != "exact" {
				q.Level, q.View = level, "iv"
			}
			if _, err := s.LineageCtx(context.Background(), "wf", q); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("level=%s/n=%d", level, n), func(b *testing.B) {
				var buf []byte
				for i := 0; i < b.N; i++ {
					ans, err := s.LineageCtx(context.Background(), "wf", q)
					if err != nil {
						b.Fatal(err)
					}
					buf = ans.AppendJSON(buf[:0])
					ans.Release()
				}
				b.SetBytes(int64(len(buf)))
			})
		}
	}
}

// BenchmarkLineageCold isolates the paper's actual argument for views:
// answering lineage without a maintained closure. Per operation, the
// exact side builds the task-level reachability closure (O(n³/w)) and
// answers one query; the view side builds only the composite-level
// quotient closure (O(k³/w), k ≪ n) and answers the same query. The run
// store's served path (BenchmarkLineageQuery) makes both cheap by
// maintaining the closure incrementally — this benchmark is the cost a
// stateless provenance system would pay per query.
func BenchmarkLineageCold(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		wf := gen.Layered(gen.LayeredConfig{
			Name: fmt.Sprintf("cold-%d", n), Tasks: n, Layers: 16,
			EdgeProb: 0.05, SkipProb: 0.01, Seed: int64(n),
		})
		v := gen.IntervalView(wf, 2+n/16, "iv")
		t := n - 1
		b.Run(fmt.Sprintf("level=exact/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := provenance.NewEngine(wf)
				if len(e.Lineage(t)) == 0 {
					b.Fatal("empty lineage")
				}
			}
		})
		b.Run(fmt.Sprintf("level=view/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ve := provenance.NewViewEngine(v)
				if len(ve.TaskLineage(t)) == 0 {
					b.Fatal("empty lineage")
				}
			}
		})
	}
}

// BenchmarkLineageBatch measures the worker-pool batch endpoint: 256
// mixed-level queries per operation.
func BenchmarkLineageBatch(b *testing.B) {
	s, wf := benchStore(b, 1024)
	if _, err := s.IngestCtx(context.Background(), "wf", fullRunDoc(wf, "full")); err != nil {
		b.Fatal(err)
	}
	var qs []Query
	for i := 0; i < 256; i++ {
		q := Query{Run: "full", Artifact: "a" + wf.Task((i*13)%wf.N()).ID}
		if i%2 == 1 {
			q.Level, q.View = LevelView, "iv"
		}
		qs = append(qs, q)
	}
	ctx := b.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := s.LineageBatch(ctx, "wf", qs, 8)
		if err != nil {
			b.Fatal(err)
		}
		ReleaseResults(results)
	}
}
