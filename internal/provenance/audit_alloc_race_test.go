//go:build race

package provenance_test

import (
	"reflect"
	"testing"

	"wolves/internal/provenance"
	"wolves/internal/provenance/provenancetest"
)

// TestAuditAllocationCeiling under -race: the AllocsPerRun ceiling
// cannot hold, so the same audits run behaviourally — each agrees with
// the from-scratch reference, and a repeated audit over the same
// indexes is equal to the first, so no scratch leaks from one call into
// the next.
func TestAuditAllocationCeiling(t *testing.T) {
	for _, s := range auditShapes(t, []int{1024, 4096}) {
		first := provenance.AuditLabels(s.v, s.reach, s.viewAnc)
		if err := provenancetest.Reference(s.v).Diff(first); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if again := provenance.AuditLabels(s.v, s.reach, s.viewAnc); !reflect.DeepEqual(again, first) {
			t.Fatalf("%s: a repeated audit differs from the first", s.name)
		}
	}
}
