package provenance_test

import (
	"fmt"
	"testing"

	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/view"
)

// auditShape is one audit input of the wolvesbench shape, with the
// label indexes AuditLabels reads.
type auditShape struct {
	name           string
	v              *view.View
	reach, viewAnc *dag.Labels
}

// auditShapes builds, per n, the workflow every wolvesbench workload
// registers (gen.Layered, 16 layers, p=0.05) with its interval view of
// k=n/16 composites and an InjectUnsound copy with k/16 merges, whose
// quotient is cyclic.
func auditShapes(tb testing.TB, ns []int) []auditShape {
	tb.Helper()
	var out []auditShape
	for _, n := range ns {
		wf := gen.Layered(gen.LayeredConfig{Name: "audit", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: int64(n)})
		reach := dag.BuildLabels(wf.Graph())
		k := n / 16
		iv := gen.IntervalView(wf, k, "iv")
		for _, vc := range []struct {
			name string
			v    *view.View
		}{{"interval", iv}, {"unsound", gen.InjectUnsound(iv, k/16, int64(n))}} {
			_, viewAnc := dag.BuildLabelPair(vc.v.Graph())
			out = append(out, auditShape{fmt.Sprintf("n=%d/view=%s", n, vc.name), vc.v, reach, viewAnc})
		}
	}
	return out
}

var auditSink *provenance.ViewAudit

// BenchmarkAuditLabels measures one audit build, the work of the first
// audited lineage read after an edit, on both views of the wolvesbench
// shape at n=1,024 and n=4,096.
func BenchmarkAuditLabels(b *testing.B) {
	for _, s := range auditShapes(b, []int{1024, 4096}) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				auditSink = provenance.AuditLabels(s.v, s.reach, s.viewAnc)
			}
		})
	}
}
