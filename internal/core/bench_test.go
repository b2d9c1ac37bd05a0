package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/soundness"
)

// BenchmarkCorrectView times a strong correction of the view shape the
// design loop corrects: a layered workflow (16 layers, p=0.05) with an
// interval view of k=n/16 composites, k/8 random pairs of them merged
// into unsound composites. Besides allocs/op it reports allocs/split,
// the allocations of one correction divided by the unsound composites
// it splits; the corrector's per-split scratch is flat, so that figure
// does not grow with n.
func BenchmarkCorrectView(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{256, 1024} {
		wf := gen.Layered(gen.LayeredConfig{Name: "correct", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: 1})
		k := n / 16
		v := gen.InjectUnsound(gen.IntervalView(wf, k, "uv"), max(1, k/8), 2)
		o := soundness.NewOracle(wf)
		splits := len(soundness.ValidateView(o, v).Unsound)
		if splits == 0 {
			b.Fatalf("n=%d: the injected view is sound", n)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := CorrectViewCtx(ctx, o, v, Strong, nil, 1); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*splits), "allocs/split")
		})
	}
}
