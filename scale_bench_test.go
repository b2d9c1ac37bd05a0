// Large-n benchmarks for the performance substrate: closure
// construction, view validation throughput at E6/E7 scale, and the
// allocation profile of the SetSound oracle. These complement the
// experiment-index benchmarks in bench_test.go.
package wolves_test

import (
	"fmt"
	"testing"

	"wolves"
	"wolves/internal/bitset"
	"wolves/internal/soundness"
)

func largeWorkflow(n int) *wolves.Workflow {
	return wolves.GenLayered(wolves.LayeredConfig{
		Name: "large", Tasks: n, Layers: n / 32, EdgeProb: 0.1, SkipProb: 0.005, Seed: 7,
	})
}

// BenchmarkClosureLarge measures the oracle-construction path (dominated
// by the workflow reachability closure) at production scales.
func BenchmarkClosureLarge(b *testing.B) {
	for _, n := range []int{512, 2048} {
		wf := largeWorkflow(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				soundness.NewOracle(wf)
			}
		})
	}
}

// BenchmarkValidateLarge measures sequential view-validation throughput
// on E6/E7-scale inputs (the parallel variant rides the same workload in
// BenchmarkValidateLargeParallel once available).
func BenchmarkValidateLarge(b *testing.B) {
	for _, n := range []int{512, 2048} {
		wf := largeWorkflow(n)
		o := benchEng.Oracle(wf)
		v := wolves.GenIntervalView(wf, n/16, "bands")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := benchEng.ValidateWithOracle(benchCtx, o, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidateLargeParallel runs the same workload as
// BenchmarkValidateLarge through the worker-pool validator (GOMAXPROCS
// workers; on a single-core host it degrades gracefully to the
// sequential path for small views and one worker otherwise).
func BenchmarkValidateLargeParallel(b *testing.B) {
	for _, n := range []int{512, 2048} {
		wf := largeWorkflow(n)
		o := benchEng.Oracle(wf)
		v := wolves.GenIntervalView(wf, n/16, "bands")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := soundness.ValidateViewParallelCtx(benchCtx, o, v, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSetSound pins the per-call allocation profile of the
// soundness oracle (the acceptance bar is zero allocations per call).
//
// The sound case uses a dense layered workflow (EdgeProb 1) where a band
// of full layers is always sound with non-empty in/out interfaces, so
// the whole oracle path — member scan, out-mask build, reach-row scans —
// runs without short-circuiting. SetSound allocates only the user-facing
// *Violation witness when the set is unsound; SetSoundQuick is the
// witness-free variant correctors use and stays allocation-free on both
// outcomes.
func BenchmarkSetSound(b *testing.B) {
	for _, n := range []int{256, 2048} {
		dense := wolves.GenLayered(wolves.LayeredConfig{
			Name: "dense", Tasks: n, Layers: n / 32, EdgeProb: 1.0, Seed: 7,
		})
		o := soundness.NewOracle(dense)
		sound := bitset.New(n)
		for t := n / 4; t < n/2; t++ {
			sound.Set(t) // full layers: every in-node reaches every out-node
		}
		if ok, _ := o.SetSound(sound); !ok {
			b.Fatal("full-layer band of a dense layered workflow must be sound")
		}
		b.Run(fmt.Sprintf("sound/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.SetSound(sound)
			}
		})

		wf := largeWorkflow(n)
		ou := soundness.NewOracle(wf)
		unsound := bitset.New(n)
		for t := n / 4; t < n/2; t++ {
			unsound.Set(t)
		}
		b.Run(fmt.Sprintf("quick-unsound/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ou.SetSoundQuick(unsound)
			}
		})
	}
}
