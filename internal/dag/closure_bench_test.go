package dag

import (
	"fmt"
	"math/rand"
	"testing"
)

// layeredDAG builds a layered random DAG in the shape of gen.Layered
// (which cannot be imported here without a cycle): tasks spread over
// layers, dense adjacent-layer edges plus sparse skip edges. It is the
// workload for the closure benchmarks demanded by the perf roadmap.
func layeredDAG(n, layers int, edgeProb, skipProb float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	layerOf := make([]int, n)
	buckets := make([][]int, layers)
	for i := 0; i < n; i++ {
		l := i * layers / n
		layerOf[i] = l
		buckets[l] = append(buckets[l], i)
	}
	for l := 1; l < layers; l++ {
		for _, t := range buckets[l] {
			connected := false
			for _, p := range buckets[l-1] {
				if rng.Float64() < edgeProb {
					g.MustAddEdge(p, t)
					connected = true
				}
			}
			if !connected {
				g.MustAddEdge(buckets[l-1][rng.Intn(len(buckets[l-1]))], t)
			}
			if skipProb > 0 && l >= 2 {
				for back := 2; back <= l; back++ {
					for _, p := range buckets[l-back] {
						if rng.Float64() < skipProb {
							g.MustAddEdge(p, t)
						}
					}
				}
			}
		}
	}
	return g
}

// BenchmarkReachabilityLayered is the headline closure benchmark: the
// reflexive-transitive closure of layered DAGs at production scales.
func BenchmarkReachabilityLayered(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g := layeredDAG(n, n/32, 0.1, 0.005, 7)
		b.Run(fmt.Sprintf("n=%d/m=%d", n, g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Reachability()
			}
		})
	}
}

// labelsSink keeps benchmarked label builds observable.
var labelsSink *Labels

// BenchmarkBuildLabels times a forward plus reverse label build of the
// layered DAGs live workflows are registered with (16 layers, p=0.05):
// fwd+rev through the public single-direction entry point and a
// materialized reversed graph, pair through BuildLabelPair, which the
// registry uses.
func BenchmarkBuildLabels(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g := layeredDAG(n, 16, 0.05, 0, 7)
		b.Run(fmt.Sprintf("n=%d/fwd+rev", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildLabels(g)
				labelsSink = BuildLabels(g.Reversed())
			}
		})
		b.Run(fmt.Sprintf("n=%d/pair", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, labelsSink = BuildLabelPair(g)
			}
		})
	}
}

// BenchmarkTopoOrderLayered isolates the topological-sort cost on the
// same graphs (the seed used an O(n²) min-scan ready list).
func BenchmarkTopoOrderLayered(b *testing.B) {
	for _, n := range []int{512, 2048} {
		g := layeredDAG(n, n/32, 0.1, 0.005, 7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.TopoOrder(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraphConstruction measures bulk AddEdge throughput (the seed
// deduplicated with a linear HasEdge scan, making construction O(n·d²)).
func BenchmarkGraphConstruction(b *testing.B) {
	for _, n := range []int{512, 2048} {
		proto := layeredDAG(n, n/32, 0.1, 0.005, 7)
		type edge struct{ u, v int }
		var edges []edge
		proto.Edges(func(u, v int) { edges = append(edges, edge{u, v}) })
		b.Run(fmt.Sprintf("n=%d/m=%d", n, len(edges)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := New(n)
				for _, e := range edges {
					g.MustAddEdge(e.u, e.v)
				}
			}
		})
	}
}

// BenchmarkTransitiveReduction measures the redundant-edge sweep.
func BenchmarkTransitiveReduction(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := layeredDAG(n, n/32, 0.15, 0.01, 11)
		b.Run(fmt.Sprintf("n=%d/m=%d", n, g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.TransitiveReduction(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
