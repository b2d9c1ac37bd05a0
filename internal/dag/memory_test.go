package dag_test

import (
	"fmt"
	"math/bits"
	"testing"

	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/workflow"
)

// TestLabelPairMemory pins what a label pair costs on the gen shapes:
// the layered shape every wolvesbench workload registers (16 layers,
// p=0.05) from n=256 to 16,384, series-parallel workflows of depth 4–8,
// scientific pipelines of 4–64 branches and a dense two-layer graph.
// On every shape the pair's MemoryBytes stays within 8 bytes per row of
// the smaller of two one-kind indexes: a budgeted interval index (all
// rows as interval covers, or all as bitmaps past 128·n+256 intervals
// per direction) and a bitmap pair (all rows as MarkWords(n)-word
// bitmaps). On the layered shape it also meets fixed bars at n=1,024
// and 4,096.
func TestLabelPairMemory(t *testing.T) {
	bars := map[int]float64{1024: 0.32, 4096: 4.0} // MiB
	type shape struct {
		name string
		wf   *workflow.Workflow
	}
	var shapes []shape
	for _, n := range []int{256, 1024, 4096, 16384} {
		for _, seed := range []int64{1, 2} {
			shapes = append(shapes, shape{fmt.Sprintf("layered/n=%d/seed=%d", n, seed),
				gen.Layered(gen.LayeredConfig{Name: "l", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: seed})})
		}
	}
	for depth := 4; depth <= 8; depth++ {
		shapes = append(shapes, shape{fmt.Sprintf("sp/depth=%d", depth),
			gen.SeriesParallel(gen.SPConfig{Name: "sp", Depth: depth, MaxBranch: 4, Seed: int64(depth)})})
	}
	for _, branches := range []int{4, 16, 64} {
		shapes = append(shapes, shape{fmt.Sprintf("pipeline/branches=%d", branches),
			gen.ScientificPipeline(gen.PipelineConfig{Name: "p", Branches: branches, ChainLen: 8,
				SideChains: 4, SideChainLen: 4, Seed: int64(branches)})})
	}
	shapes = append(shapes, shape{"dense", gen.Layered(gen.LayeredConfig{Name: "dense", Tasks: 2048, Layers: 2, EdgeProb: 0.5, Seed: 1})})

	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			g := s.wf.Graph()
			n := g.N()
			fwd, rev := dag.BuildLabelPair(g)
			got := fwd.MemoryBytes() + rev.MemoryBytes()
			f, r := wholeIndexBytes(fwd), wholeIndexBytes(rev)
			intervalPair, bitmapPair := f[0]+r[0], f[1]+r[1]
			ref := min(intervalPair, bitmapPair)
			t.Logf("n=%d: pair %.3f MiB; interval index %.3f MiB, bitmap pair %.3f MiB",
				n, mib(got), mib(intervalPair), mib(bitmapPair))
			if got > ref+8*int64(2*n) {
				t.Errorf("pair holds %d bytes, over min(interval index, bitmap pair) = %d + 8 per row", got, ref)
			}
			if bar, ok := bars[n]; ok && mib(got) > bar {
				t.Errorf("pair holds %.3f MiB at n=%d, over the %.2f MiB bar", mib(got), n, bar)
			}
		})
	}
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// wholeIndexBytes returns what l's node set would cost with one row
// kind for the whole index, with the same tables and row headers: [0]
// as the budgeted interval index, [1] as MarkWords(n)-word bitmaps. The
// covers are counted from MarkRow, a component's shared row once.
func wholeIndexBytes(l *dag.Labels) [2]int64 {
	n := l.N()
	start, nodes := l.PosNodes()
	fixed := 4*int64(n+len(start)+len(nodes)) + 24*int64(n)
	mark := make([]uint64, dag.MarkWords(n))
	intervals := 0
	for p := 0; p+1 < len(start); p++ {
		clear(mark)
		l.MarkRow(mark, int(nodes[start[p]]))
		var carry uint64
		for _, x := range mark {
			intervals += bits.OnesCount64(x &^ (x<<1 | carry))
			carry = x >> 63
		}
	}
	bitmap := fixed + 8*int64((len(start)-1)*dag.MarkWords(n))
	if intervals > 128*n+256 {
		return [2]int64{bitmap, bitmap}
	}
	return [2]int64{fixed + 8*int64(intervals), bitmap}
}
