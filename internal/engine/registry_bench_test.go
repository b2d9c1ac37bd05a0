package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// benchWorkload is one live-mutation scenario: a layered workflow, an
// attached interval view, and a pool of fresh candidate edges that all
// respect a single topological order (so any prefix of the stream is
// acyclic and both benchmark variants process the identical mutations).
type benchWorkload struct {
	wf         *workflow.Workflow
	v          *view.View
	candidates [][2]string
}

// benchEdgePool bounds the candidate stream; past it the stream wraps to
// duplicate edges (no-ops for the incremental path, full price for the
// rebuild path), so record numbers with -benchtime=2000x or lower.
const benchEdgePool = 8192

func newBenchWorkload(b *testing.B, n int) *benchWorkload {
	b.Helper()
	wf := gen.Layered(gen.LayeredConfig{
		Name: fmt.Sprintf("bench-%d", n), Tasks: n, Layers: 12,
		EdgeProb: 0.25, SkipProb: 0.05, Seed: int64(n),
	})
	v := gen.IntervalView(wf, n/16, "bench-view")
	order, err := wf.Graph().TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n) * 7))
	seen := make(map[[2]int]bool, benchEdgePool)
	cands := make([][2]string, 0, benchEdgePool)
	for len(cands) < benchEdgePool {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		u, w := order[i], order[j]
		if seen[[2]int{u, w}] || wf.Graph().HasEdge(u, w) {
			continue
		}
		seen[[2]int{u, w}] = true
		cands = append(cands, [2]string{wf.Task(u).ID, wf.Task(w).ID})
	}
	return &benchWorkload{wf: wf, v: v, candidates: cands}
}

// batch returns the i-th mutation batch of the stream.
func (w *benchWorkload) batch(i, size int) [][2]string {
	out := make([][2]string, 0, size)
	for k := 0; k < size; k++ {
		out = append(out, w.candidates[(i*size+k)%len(w.candidates)])
	}
	return out
}

// register registers the workload's workflow with its view attached.
func (w *benchWorkload) register(b *testing.B) *LiveWorkflow {
	b.Helper()
	lw, err := NewRegistry(New()).RegisterCtx(context.Background(), "bench", w.wf)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := lw.AttachViewCtx(context.Background(), "v", func(wf *workflow.Workflow) (*view.View, error) {
		return w.v, nil
	}); err != nil {
		b.Fatal(err)
	}
	return lw
}

// BenchmarkRegister measures registering the workload's workflow: the
// closure and label pair builds and the first epoch publication.
func BenchmarkRegister(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := newBenchWorkload(b, n)
			reg := NewRegistry(New())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wf := w.wf.Clone()
				b.StartTimer()
				if _, err := reg.RegisterCtx(context.Background(), "bench", wf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutateIncremental measures the registry path: one Mutate call
// per iteration — incremental closure update, dirty-set revalidation,
// report merge.
func BenchmarkMutateIncremental(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
				w := newBenchWorkload(b, n)
				lw := w.register(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: w.batch(i, batch)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMutateRejected measures a batch rejected at its first edge:
// each iteration sends one edge from a successor back to its
// predecessor, which closes a cycle. The failed insertion touches
// nothing, so the rejection must cost no rebuild.
func BenchmarkMutateRejected(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := newBenchWorkload(b, n)
			var back [][2]string
			for u := 0; u < w.wf.N(); u++ {
				for _, v := range w.wf.Graph().Succs(u) {
					back = append(back, [2]string{w.wf.Task(int(v)).ID, w.wf.Task(u).ID})
				}
			}
			lw := w.register(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{back[i%len(back)]}})
				if !hasCode(err, ErrCycleRejected) {
					b.Fatalf("back edge %v: error = %v, want a cycle rejection", back[i%len(back)], err)
				}
			}
		})
	}
}

// BenchmarkMutateRebuild measures what the stateless stack pays for the
// same mutation stream: apply the edges, rebuild the reachability
// closure from scratch, revalidate the whole view.
func BenchmarkMutateRebuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(b *testing.B) {
				w := newBenchWorkload(b, n)
				g := w.wf.Graph()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, e := range w.batch(i, batch) {
						g.MustAddEdge(w.wf.MustIndex(e[0]), w.wf.MustIndex(e[1]))
					}
					w.wf.StructureChanged()
					oracle := soundness.NewOracle(w.wf)
					rep := soundness.ValidateView(oracle, w.v)
					_ = rep
				}
			})
		}
	}
}
