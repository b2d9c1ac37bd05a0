//go:build !race

package runs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestLineageAllocationCeiling is the CI allocation-regression guard
// for the serve path: a warm view-level (and audited, and exact)
// lineage query over a pooled, label-indexed store must stay under a
// hard allocs-per-op ceiling. The label rewrite brought view/audited
// answers from ~47 heap allocations to ~zero; this test fails the
// build if a change quietly reintroduces per-query garbage. Under
// -race the ceiling is meaningless (the race runtime allocates on its
// own instrumentation), so alloc_race_test.go substitutes a
// behavioral pass over the same fixture.
func TestLineageAllocationCeiling(t *testing.T) {
	s, cases := lineageAllocStore(t)
	var encBuf []byte
	for _, tc := range cases {
		q := tc.q
		// Warm: fill pools, the audit cache and slice capacities.
		for i := 0; i < 4; i++ {
			ans, qerr := s.LineageCtx(context.Background(), "wf", q)
			if qerr != nil {
				t.Fatal(qerr)
			}
			encBuf = ans.AppendJSON(encBuf[:0])
			ans.Release()
		}
		got := testing.AllocsPerRun(100, func() {
			ans, qerr := s.LineageCtx(context.Background(), "wf", q)
			if qerr != nil {
				t.Fatal(qerr)
			}
			encBuf = ans.AppendJSON(encBuf[:0])
			ans.Release()
		})
		if got > tc.ceiling {
			t.Errorf("%s: %v allocs/op, ceiling %v — the serve path regressed",
				tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %v allocs/op (ceiling %v)", tc.name, got, tc.ceiling)
		}
	}
}

// TestIngestAllocationCeiling is the CI allocation-regression guard for
// run ingest: warm allocations per document on the JSON, NDJSON,
// batch-of-8 and RestoreRun paths must stay under one constant, and be
// the same for 256- and 1,024-artifact documents — an ingest allocates
// a fixed set of objects, never one per record or per table growth.
// (alloc_race_test.go substitutes a behavioral pass under -race.)
func TestIngestAllocationCeiling(t *testing.T) {
	got := map[string]float64{}
	for _, size := range []int{256, 1024} {
		for _, tc := range ingestAllocCases(t, size) {
			i := 0
			op := func() {
				if _, err := tc.op(i); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for k := 0; k < 16; k++ {
				op() // warm the scratch pool and its capacities
			}
			allocs := testing.AllocsPerRun(48, op) / float64(tc.docs)
			if allocs > ingestAllocCeiling {
				t.Errorf("%s/artifacts=%d: %.1f allocs per document, ceiling %d — ingest allocates per record again",
					tc.name, size, allocs, ingestAllocCeiling)
			} else {
				t.Logf("%s/artifacts=%d: %.1f allocs per document (ceiling %d)", tc.name, size, allocs, ingestAllocCeiling)
			}
			if small, ok := got[tc.name]; ok && allocs != small {
				t.Errorf("%s: %.1f allocs per 1,024-artifact document against %.1f per 256-artifact one — ingest allocates with the document's size",
					tc.name, allocs, small)
			}
			got[tc.name] = allocs
		}
	}
}

// heapPerRunCeiling bounds the heap one stored run holds on
// ingest-heavy's shape (TestHeapPerStoredRun): half of the 39.2 KB the
// map-indexed layout with one string header per ID held.
const heapPerRunCeiling = 19_600

// TestHeapPerStoredRun measures the heap a stored run holds: HeapAlloc
// after two GCs, before and after ingesting 400 runs shaped like
// ingest-heavy's (an n=1,024 workflow, 256 chained artifacts named
// <run>.<k>, implicit invocations), per run. The run layout must stay
// under heapPerRunCeiling, and the store's MemoryBytes gauge within 15%
// of the measurement. Runs restored from their canonical documents,
// where the implicit invocations are materialized, must be laid out
// alike.
func TestHeapPerStoredRun(t *testing.T) {
	const runs = 400
	s, wf := benchStore(t, 1024)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < runs; i++ {
		doc := windowRunDoc(wf, fmt.Sprintf("s%d", i), i*37, wf.N()/4)
		if _, err := s.IngestCtx(context.Background(), "wf", doc); err != nil {
			t.Fatal(err)
		}
	}
	perRun := (float64(heap()) - float64(before)) / runs
	st := s.Stats()
	gauge := float64(st.MemoryBytes) / float64(st.Runs)
	t.Logf("heap per stored run: %.0f bytes measured, %.0f by the gauge, %.0f of it the canonical document",
		perRun, gauge, float64(st.DocBytes)/float64(st.Runs))
	if st.Runs != runs {
		t.Fatalf("store holds %d runs, want %d", st.Runs, runs)
	}
	if perRun > heapPerRunCeiling {
		t.Errorf("a stored run holds %.0f bytes of heap, ceiling %d", perRun, heapPerRunCeiling)
	}
	if gauge < 0.85*perRun || gauge > 1.15*perRun {
		t.Errorf("the memory gauge reads %.0f bytes per run against %.0f measured: off by more than 15%%", gauge, perRun)
	}
	restored := New(s.reg)
	ids, docs := s.SnapshotRuns("wf")
	for i, doc := range docs {
		if err := restored.RestoreRun("wf", ids[i], doc); err != nil {
			t.Fatal(err)
		}
	}
	if rst := restored.Stats(); rst != st {
		t.Errorf("restored runs hold %+v, ingested ones %+v", rst, st)
	}
}
