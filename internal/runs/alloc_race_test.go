//go:build race

package runs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestLineageAllocationCeiling under -race: the AllocsPerRun ceiling
// cannot hold (the race runtime allocates on its own barriers), so
// this build runs the same warm fixture behaviorally — repeated pooled
// serves of every level must keep producing byte-identical answers.
// That is the property the allocation discipline exists to protect: a
// recycled answer that leaks state across queries shows up here as a
// diverging encoding.
func TestLineageAllocationCeiling(t *testing.T) {
	s, cases := lineageAllocStore(t)
	var first, encBuf []byte
	for _, tc := range cases {
		q := tc.q
		first = first[:0]
		for i := 0; i < 32; i++ {
			ans, qerr := s.LineageCtx(context.Background(), "wf", q)
			if qerr != nil {
				t.Fatal(qerr)
			}
			encBuf = ans.AppendJSON(encBuf[:0])
			ans.Release()
			if i == 0 {
				first = append(first, encBuf...)
				if len(first) == 0 {
					t.Fatalf("%s: empty answer encoding", tc.name)
				}
				continue
			}
			if !bytes.Equal(first, encBuf) {
				t.Fatalf("%s: pooled serve diverged on iteration %d:\nfirst %s\n  got %s",
					tc.name, i, first, encBuf)
			}
		}
	}
}

// TestIngestAllocationCeiling under -race: the AllocsPerRun ceiling
// cannot hold, so the same warm ingests run behaviorally — cycling each
// path's pool twice must give identical infos and canonical documents
// on both rounds, so no pooled arena, slice or buffer leaks state from
// one document into the next.
func TestIngestAllocationCeiling(t *testing.T) {
	for _, size := range []int{256, 1024} {
		for _, tc := range ingestAllocCases(t, size) {
			var first []string
			for i := 0; i < 32; i++ {
				infos, err := tc.op(i)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, info := range infos {
					_, run, err := tc.s.lookup("wf", info.Run)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%+v %q %x;", info, artIDs(run), run.Doc())
				}
				if i < 16 {
					first = append(first, b.String())
				} else if first[i-16] != b.String() {
					t.Fatalf("%s/artifacts=%d: pooled ingest %d diverged from its first round", tc.name, size, i)
				}
			}
		}
	}
}
