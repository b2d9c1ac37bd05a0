//go:build !race

package provenance_test

import (
	"testing"

	"wolves/internal/provenance"
)

// auditAllocCeiling bounds the allocations of one AuditLabels call: the
// audit, the scratch slab, the task→composite table, and an offset
// table and a member array per non-empty delta relation.
const auditAllocCeiling = 16

// TestAuditAllocationCeiling is the allocation guard of the audit
// kernel: an audit costs a fixed number of allocations whatever n, k or
// the number of false pairs, on both views of the wolvesbench shape at
// n=1,024 and n=4,096. Under -race the ceiling is meaningless (the race
// runtime allocates on its own instrumentation), so
// audit_alloc_race_test.go substitutes a behavioural pass.
func TestAuditAllocationCeiling(t *testing.T) {
	for _, s := range auditShapes(t, []int{1024, 4096}) {
		got := testing.AllocsPerRun(8, func() {
			auditSink = provenance.AuditLabels(s.v, s.reach, s.viewAnc)
		})
		if got > auditAllocCeiling {
			t.Errorf("%s: %v allocs per audit, ceiling %d — the audit allocates per composite or per pair again",
				s.name, got, auditAllocCeiling)
		} else {
			t.Logf("%s: %v allocs per audit (ceiling %d)", s.name, got, auditAllocCeiling)
		}
	}
}
