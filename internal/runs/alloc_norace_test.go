//go:build !race

package runs

import (
	"context"
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
// batch-of-8 and RestoreRun paths must stay under one constant for
// 256- and 1,024-artifact documents alike — an ingest allocates a fixed
// set of objects, never one per record. (alloc_race_test.go substitutes
// a behavioral pass under -race.)
func TestIngestAllocationCeiling(t *testing.T) {
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
			got := testing.AllocsPerRun(48, op) / float64(tc.docs)
			if got > ingestAllocCeiling {
				t.Errorf("%s/artifacts=%d: %.1f allocs per document, ceiling %d — ingest allocates per record again",
					tc.name, size, got, ingestAllocCeiling)
			} else {
				t.Logf("%s/artifacts=%d: %.1f allocs per document (ceiling %d)", tc.name, size, got, ingestAllocCeiling)
			}
		}
	}
}
