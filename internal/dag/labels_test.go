package dag

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// randDAG builds a random DAG on n nodes: edges only from lower to
// higher index, so acyclicity is structural.
func randDAG(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// randDigraph builds a random directed graph that may contain cycles.
func randDigraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// rowShapes are the graph shapes the label property tests run over,
// named after the container most of their rows take: a sparse random
// DAG keeps most rows as runs, a dense layered one most as bitmaps.
// Both hold rows of either kind, so each subtest meets both containers,
// and edges patch rows between them. Node index order is topological
// in both. edges is the length of a local-edge history that keeps a
// 512-node graph of the shape under twice its built label size
// (checkPatchHistoryKeepsLabels).
var rowShapes = []struct {
	name  string
	graph func(rng *rand.Rand, n int) *Graph
	edges int
}{
	{"intervals", func(rng *rand.Rand, n int) *Graph { return randDAG(rng, n, 1.5/float64(n)) }, 100},
	{"bitmap", func(rng *rand.Rand, n int) *Graph { return layeredDAG(n, min(n, 4), 0.3, 0.03, rng.Int63()) }, 1500},
}

// isBitmap reports whether row is a bitmap row.
func isBitmap(row []uint64) bool { return row[0]&bitmapRow != 0 }

// rowKinds counts l's rows by container, a row shared by the members
// of one component once.
func rowKinds(l *Labels) (runs, bitmaps int) {
	for q := 0; q+1 < len(l.byPosStart); q++ {
		if isBitmap(l.rows[l.byPosNodes[l.byPosStart[q]]]) {
			bitmaps++
		} else {
			runs++
		}
	}
	return runs, bitmaps
}

// checkMostly asserts that most of the rows of the indexes ls take the
// container kind names ("intervals" or "bitmap").
func checkMostly(t *testing.T, kind string, ls ...*Labels) {
	t.Helper()
	var runs, bitmaps int
	for _, l := range ls {
		r, b := rowKinds(l)
		runs, bitmaps = runs+r, bitmaps+b
	}
	if (kind == "bitmap") != (bitmaps > runs) {
		t.Fatalf("%s shape: %d run rows, %d bitmap rows", kind, runs, bitmaps)
	}
}

// checkLabelsMatchClosure asserts that l answers exactly like the
// closure for every ordered pair, and that the row walk enumerates
// exactly the closure row members, each once.
func checkLabelsMatchClosure(t *testing.T, g *Graph, l *Labels) {
	t.Helper()
	if l == nil {
		t.Fatal("label build returned nil")
	}
	c := g.Reachability()
	n := g.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := c.Reaches(u, v)
			if got := l.Reaches(u, v); got != want {
				t.Fatalf("Reaches(%d,%d) = %v, closure says %v", u, v, got, want)
			}
		}
	}
	mark := make([]uint64, MarkWords(n))
	for u := 0; u < n; u++ {
		clear(mark)
		l.MarkRow(mark, u)
		for v := 0; v < n; v++ {
			if got := l.Marked(mark, v); got != c.Reaches(u, v) {
				t.Fatalf("Marked(%d,%d) = %v, closure says %v", u, v, got, c.Reaches(u, v))
			}
		}
	}
	// PosNodes lists every node once, at the position MarkRow sets for
	// it.
	start, nodes := l.PosNodes()
	if len(nodes) != n || start[0] != 0 || int(start[len(start)-1]) != n {
		t.Fatalf("PosNodes: %d nodes, offsets %d..%d, want %d nodes", len(nodes), start[0], start[len(start)-1], n)
	}
	seen := make([]bool, n)
	for p := 0; p+1 < len(start); p++ {
		for _, u := range nodes[start[p]:start[p+1]] {
			clear(mark)
			mark[p>>6] = 1 << (uint(p) & 63)
			if seen[u] || !l.Marked(mark, int(u)) {
				t.Fatalf("PosNodes puts node %d at position %d (listed before: %v)", u, p, seen[u])
			}
			seen[u] = true
		}
	}
	var buf []int
	for u := 0; u < n; u++ {
		buf = buf[:0]
		l.forEachReachable(u, func(v int) { buf = append(buf, v) })
		slices.Sort(buf)
		if members := c.Row(u).Members(); !slices.Equal(buf, members) {
			t.Fatalf("forEachReachable(%d) walks %v, closure row is %v", u, buf, members)
		}
	}
}

func TestLabelsMatchClosureRandomDAGs(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			var built []*Labels
			for _, n := range []int{0, 1, 2, 3, 8, 17, 40, 80, 130} {
				g := shape.graph(rng, n)
				l := BuildLabels(g)
				checkLabelsMatchClosure(t, g, l)
				built = append(built, l)
			}
			checkMostly(t, shape.name, built...)
			if shape.name != "intervals" {
				return
			}
			// Empty, sparse, dense and nearly complete DAGs.
			for _, n := range []int{0, 1, 2, 3, 8, 17, 40, 80, 130} {
				for _, p := range []float64{0, 0.02, 0.1, 0.4, 0.9} {
					g := randDAG(rng, n, p)
					checkLabelsMatchClosure(t, g, BuildLabels(g))
				}
			}
		})
	}
}

// TestLabelsMatchClosureCyclic covers the condensed (SCC-sharing) build
// on raw random digraphs and on quotients of random DAGs under random
// partitions — the cyclic view graphs of unsound views.
func TestLabelsMatchClosureCyclic(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			var graphs []*Graph
			for _, n := range []int{2, 3, 8, 17, 40, 90} {
				for _, p := range []float64{0.05, 0.15, 0.5} {
					graphs = append(graphs, randDigraph(rng, n, p))
				}
				for range 3 {
					g := shape.graph(rng, 2*n)
					k := 1 + rng.Intn(n)
					partOf := make([]int, 2*n)
					for u := range partOf {
						partOf[u] = rng.Intn(k)
					}
					q, err := g.Quotient(partOf, k)
					if err != nil {
						t.Fatal(err)
					}
					graphs = append(graphs, q)
				}
			}
			sawCycle := false
			for _, g := range graphs {
				sawCycle = sawCycle || !g.IsAcyclic()
				checkLabelsMatchClosure(t, g, BuildLabels(g))
			}
			if !sawCycle {
				t.Fatal("no cyclic input generated; strengthen the workload")
			}
		})
	}
}

// TestLabelsGrowAndPatchViaIncremental drives both label indexes
// through IncrementalClosure edge and node additions (Patch, Grow and
// size-rule rebuilds), checking them against the closure as they go;
// every Fork taken along the way must keep answering for the graph it
// was taken at. It then pins the rebuild rule: a patch history that
// keeps the pair under twice its built size never rebuilds, and one
// that fragments the rows rebuilds exactly when the patched pair would
// pass 2×.
func TestLabelsGrowAndPatchViaIncremental(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(10))
			ic, err := NewIncrementalClosure(shape.graph(rng, 40))
			if err != nil {
				t.Fatal(err)
			}
			checkMostly(t, shape.name, ic.Labels(), ic.RevLabels())
			type fork struct {
				g        *Graph
				fwd, rev *Labels
			}
			var forks []fork
			check := func() {
				fwd, rev := ic.Labels(), ic.RevLabels()
				checkLabelsMatchClosure(t, ic.Graph(), fwd)
				checkLabelsMatchClosure(t, ic.Graph().Reversed(), rev)
				forks = append(forks, fork{g: ic.Graph().Clone(), fwd: fwd.Fork(), rev: rev.Fork()})
			}
			for step := 0; step < 1200; step++ {
				if rng.Intn(12) == 0 {
					ic.Grow(1 + rng.Intn(3))
				}
				n := ic.N()
				u, v := rng.Intn(n), rng.Intn(n)
				_, _ = ic.AddEdge(u, v, nil) // cycles/self-loops rejected, fine
				if step%97 == 0 {
					check()
				}
			}
			check()
			for _, f := range forks {
				checkLabelsMatchClosure(t, f.g, f.fwd)
				checkLabelsMatchClosure(t, f.g.Reversed(), f.rev)
			}

			t.Run("under 2x never rebuilds", func(t *testing.T) {
				checkPatchHistoryKeepsLabels(t, shape.graph(rng, 512), shape.edges)
			})
			if shape.name == "intervals" {
				t.Run("fragmented past 2x rebuilds", checkFragmentedLabelsRebuild)
			}
		})
	}
}

// checkPatchHistoryKeepsLabels drives a history of local forward edges
// (spanning at most n/16 nodes of g, whose index order must be
// topological) and asserts the patched pair stays under twice its
// built size and is never rebuilt, while answering exactly like the
// closure.
func checkPatchHistoryKeepsLabels(t *testing.T, g *Graph, edges int) {
	n := g.N()
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 1; i <= edges; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(min(n/16, n-1-u))
		if _, err := ic.AddEdge(u, v, nil); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 || i == edges {
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
			checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.RevLabels())
		}
	}
	if size := ic.labelSize(); size > 2*ic.labelBuilt {
		t.Fatalf("workload grew the pair to %d > 2×%d; it must stay under 2×", size, ic.labelBuilt)
	}
	if ic.LabelRebuilds() != 0 || ic.LabelBuilds() != 1 {
		t.Fatalf("%d rebuilds (%d builds) under 2× growth, want none", ic.LabelRebuilds(), ic.LabelBuilds())
	}
}

// checkFragmentedLabelsRebuild adds edges i→i+2 over isolated nodes,
// which splits every row into alternating positions, and asserts the
// pair is rebuilt exactly at the first edge after which its patched
// size would exceed twice the built size — computed independently as
// the reference row of every reach set over the pair's positions — and
// that the rebuilt pair matches the closure.
func checkFragmentedLabelsRebuild(t *testing.T) {
	const n = 256
	ic, err := NewIncrementalClosure(New(n))
	if err != nil {
		t.Fatal(err)
	}
	fwd, rev := ic.Labels(), ic.RevLabels()
	built := ic.labelBuilt
	crossed := false
	for i := 0; i+2 < n && !crossed; i++ {
		if _, err := ic.AddEdge(i, i+2, nil); err != nil {
			t.Fatal(err)
		}
		crossed = referenceSize(ic.Graph(), fwd, rev) > 2*built
		want := int64(0)
		if crossed {
			want = 1
		}
		if ic.LabelRebuilds() != want {
			t.Fatalf("edge %d→%d: %d rebuilds, want %d (patched size %d, built %d)",
				i, i+2, ic.LabelRebuilds(), want, referenceSize(ic.Graph(), fwd, rev), built)
		}
		if !crossed {
			checkLabelsMatchClosure(t, ic.Graph(), ic.labels)
			checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.revLabels)
		}
	}
	if !crossed {
		t.Fatal("the fragmenting history never passed 2×; lengthen it")
	}
	checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
	checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.RevLabels())
	if ic.LabelBuilds() != 2 {
		t.Fatalf("%d builds, want the initial build and one rebuild", ic.LabelBuilds())
	}
}

// referenceSize is the total length of the reference rows of every
// reach set of g: forward over fwd's positions, ancestors over rev's.
func referenceSize(g *Graph, fwd, rev *Labels) int {
	c := g.Reachability()
	size := 0
	for u := 0; u < g.N(); u++ {
		var down, up []int32
		for v := 0; v < g.N(); v++ {
			if c.Reaches(u, v) {
				down = append(down, fwd.pos[v])
			}
			if c.Reaches(v, u) {
				up = append(up, rev.pos[v])
			}
		}
		size += len(referenceRow(down)) + len(referenceRow(up))
	}
	return size
}

// interval is a closed range [lo, hi] of positions.
type interval struct{ lo, hi int32 }

// mergeIntervals is the reference merge: it sorts ivs by lo and
// coalesces overlapping or adjacent intervals into dst (reset to length
// 0 first). Positions are integral, so [1,3] and [4,6] merge into [1,6].
func mergeIntervals(dst, ivs []interval) []interval {
	dst = dst[:0]
	if len(ivs) == 0 {
		return dst
	}
	slices.SortFunc(ivs, func(a, b interval) int { return int(a.lo) - int(b.lo) })
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo <= cur.hi+1 {
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
			continue
		}
		dst = append(dst, cur)
		cur = iv
	}
	return append(dst, cur)
}

// referenceRow encodes the non-empty position set ps in the smaller
// container, independently of appendRow: its runs by the sort-based
// reference merge of the singleton positions, its bitmap bit by bit
// over the words from its least to its greatest position; runs on a
// tie.
func referenceRow(ps []int32) []uint64 {
	var ivs []interval
	lw, hw := int(ps[0])>>6, int(ps[0])>>6
	for _, p := range ps {
		ivs = append(ivs, interval{p, p})
		lw, hw = min(lw, int(p)>>6), max(hw, int(p)>>6)
	}
	ivs = mergeIntervals(nil, ivs)
	if len(ivs) <= hw-lw+2 {
		row := make([]uint64, len(ivs))
		for i, iv := range ivs {
			row[i] = uint64(iv.lo)<<32 | uint64(iv.hi)
		}
		return row
	}
	row := make([]uint64, hw-lw+2)
	row[0] = 1<<63 | uint64(lw)
	for _, p := range ps {
		row[1+int(p)>>6-lw] |= 1 << (uint(p) & 63)
	}
	return row
}

// TestLabelKernelsMatchReference is the differential test of the row
// kernels. Build: every row holds exactly the reference position set —
// the positions of the nodes the closure says it reaches — in the
// smaller container, encoded exactly as referenceRow encodes it, and
// the reverse index of BuildLabelPair equals BuildLabels of the
// reversed graph row for row. Sizes straddle word boundaries so runs
// end on bit 63 and cross words, and the densities give rows of both
// kinds. Patch: every patched row is the reference row of the union of
// the two rows' sets, allocated at exactly its length, and the index's
// word count follows it.
func TestLabelKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var runs, bitmaps int
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 300} {
		for _, p := range []float64{0.3 / float64(n), 3 / float64(n), 0.05} {
			for _, g := range []*Graph{randDAG(rng, n, p), randDigraph(rng, n, p/2)} {
				fwd, rev := BuildLabelPair(g)
				checkRowsMatchReference(t, g, fwd, false)
				checkRowsMatchReference(t, g, rev, true)
				if want := BuildLabels(g.Reversed()); !reflect.DeepEqual(rev, want) {
					t.Fatalf("n=%d: BuildLabelPair's reverse index differs from BuildLabels(g.Reversed())", n)
				}
				r, b := rowKinds(fwd)
				runs, bitmaps = runs+r, bitmaps+b
				if g.IsAcyclic() {
					checkPatchMatchesReference(t, rng, fwd)
				}
			}
		}
	}
	if runs == 0 || bitmaps == 0 {
		t.Fatalf("built %d run rows and %d bitmap rows; the sizes must give both", runs, bitmaps)
	}
}

// rowPositions returns the positions l's row u holds, ascending.
func rowPositions(l *Labels, u int) []int32 {
	mark := make([]uint64, MarkWords(l.N()))
	l.MarkRow(mark, u)
	var ps []int32
	for p := 0; p < l.N(); p++ {
		if mark[p>>6]&(1<<(uint(p)&63)) != 0 {
			ps = append(ps, int32(p))
		}
	}
	return ps
}

// checkRowsMatchReference compares every row of l with the reference
// row of the node's reach set (its ancestors when up is set), and the
// index's word count with their total, each component's row once.
func checkRowsMatchReference(t *testing.T, g *Graph, l *Labels, up bool) {
	t.Helper()
	c := g.Reachability()
	words := 0
	for u := 0; u < g.N(); u++ {
		var ps []int32
		for v := 0; v < g.N(); v++ {
			if (!up && c.Reaches(u, v)) || (up && c.Reaches(v, u)) {
				ps = append(ps, l.pos[v])
			}
		}
		slices.Sort(ps)
		ps = slices.Compact(ps)
		want := referenceRow(ps)
		if !slices.Equal(l.rows[u], want) {
			t.Fatalf("n=%d up=%v: row %d = %x, reference %x (positions %v)", g.N(), up, u, l.rows[u], want, ps)
		}
		if start, nodes := l.PosNodes(); int(nodes[start[l.pos[u]]]) == u {
			words += len(want)
		}
	}
	if l.words != words {
		t.Fatalf("n=%d up=%v: the index counts %d row words, its rows hold %d", g.N(), up, l.words, words)
	}
}

// checkPatchMatchesReference patches random row pairs of a fork of l and
// checks each result against the reference row of the union and for
// cap == len.
func checkPatchMatchesReference(t *testing.T, rng *rand.Rand, l *Labels) {
	t.Helper()
	f := l.Fork()
	for i := 0; i < 2*f.N(); i++ {
		w, v := rng.Intn(f.N()), rng.Intn(f.N())
		union := append(rowPositions(f, w), rowPositions(f, v)...)
		slices.Sort(union)
		want := referenceRow(slices.Compact(union))
		before := f.words - len(f.rows[w])
		f.Patch(w, v)
		got := f.rows[w]
		if !slices.Equal(got, want) {
			t.Fatalf("Patch(%d,%d) = %x, reference %x", w, v, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("Patch(%d,%d): cap %d != len %d", w, v, cap(got), len(got))
		}
		if f.words != before+len(got) {
			t.Fatalf("Patch(%d,%d): word count %d, want %d", w, v, f.words, before+len(got))
		}
	}
}

func TestLabelsRollbackRebuilds(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	ic.Grow(2)
	if _, err := ic.AddEdge(1, 4, nil); err != nil {
		t.Fatal(err)
	}
	ic.Rollback(4, [][2]int{{1, 4}})
	checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
	if ic.N() != 4 {
		t.Fatalf("N = %d after rollback, want 4", ic.N())
	}
}

func TestLabelsFork(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			ic, err := NewIncrementalClosure(shape.graph(rand.New(rand.NewSource(4)), 64))
			if err != nil {
				t.Fatal(err)
			}
			before := ic.Graph().Clone()
			snap := ic.Labels().Fork()
			u, v := newIdleEdge(t, ic)
			if _, err := ic.AddEdge(u, v, nil); err != nil {
				t.Fatal(err)
			}
			ic.Grow(2)
			// The fork answers for the old world: u did not reach v.
			if snap.Reaches(u, v) {
				t.Fatal("fork sees a post-fork edge")
			}
			checkLabelsMatchClosure(t, before, snap)
			// The live index answers for the new world.
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
		})
	}
}

// TestLabelsStats pins the memory account — 4 bytes per table entry,
// one slice header per row and 8 bytes per row word, a component's
// shared row counted once — on a DAG, before and after a patch, and on
// a cyclic graph whose components share rows of both kinds.
func TestLabelsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ic, err := NewIncrementalClosure(randDAG(rng, 30, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	cyclic := BuildLabels(randDigraph(rng, 300, 0.004))
	if runs, bitmaps := rowKinds(cyclic); runs == 0 || bitmaps == 0 || runs+bitmaps == cyclic.N() {
		t.Fatalf("cyclic index: %d run rows, %d bitmap rows over %d nodes; want both kinds and a shared row",
			runs, bitmaps, cyclic.N())
	}
	checkMemoryBytes(t, ic.Labels())
	checkMemoryBytes(t, cyclic)
	u, v := newIdleEdge(t, ic)
	if _, err := ic.AddEdge(u, v, nil); err != nil {
		t.Fatal(err)
	}
	checkMemoryBytes(t, ic.Labels())
}

// checkMemoryBytes recounts l's memory from its tables and rows.
func checkMemoryBytes(t *testing.T, l *Labels) {
	t.Helper()
	words, seen := 0, map[*uint64]bool{}
	for _, row := range l.rows {
		if !seen[&row[0]] {
			seen[&row[0]] = true
			words += len(row)
		}
	}
	want := int64(4*(len(l.pos)+len(l.byPosStart)+len(l.byPosNodes)) + 24*len(l.rows) + 8*words)
	if got := l.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d (%d nodes, %d row words)", got, want, l.N(), words)
	}
}

// rowArrayProbe reports, when called, whether the backing array of l's
// row u is still reachable.
func rowArrayProbe(l *Labels, u int) func() bool {
	p := weak.Make(&l.rows[u][0])
	return func() bool { return p.Value() != nil }
}

// newIdleEdge returns an edge u→v of ic's graph between two nodes that
// do not reach each other, u < v, so inserting it patches both label
// directions.
func newIdleEdge(t *testing.T, ic *IncrementalClosure) (int, int) {
	t.Helper()
	for u := 0; u < ic.N(); u++ {
		for v := u + 1; v < ic.N(); v++ {
			if !ic.Labels().Reaches(u, v) && !ic.Labels().Reaches(v, u) {
				return u, v
			}
		}
	}
	t.Fatal("every pair of nodes is connected")
	return 0, 0
}

// TestFirstPatchFreesBuildArray: a build stores its rows in one backing
// array, and the first Patch moves every row out of it, so once the
// forks taken before that patch are dropped, the array is collected.
func TestFirstPatchFreesBuildArray(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			ic, err := NewIncrementalClosure(shape.graph(rand.New(rand.NewSource(5)), 200))
			if err != nil {
				t.Fatal(err)
			}
			fwdAlive, revAlive := rowArrayProbe(ic.Labels(), 0), rowArrayProbe(ic.RevLabels(), 0)
			fwd, rev := ic.Labels().Fork(), ic.RevLabels().Fork()
			builds := ic.LabelBuilds()
			u, v := newIdleEdge(t, ic)
			if _, err := ic.AddEdge(u, v, nil); err != nil {
				t.Fatal(err)
			}
			if ic.LabelBuilds() != builds || ic.Labels().shared || ic.RevLabels().shared {
				t.Fatal("the edge did not patch both directions of the built pair")
			}
			runtime.GC()
			runtime.GC()
			if !fwdAlive() || !revAlive() {
				t.Fatal("a build array was freed while a fork still reads it")
			}
			runtime.KeepAlive(fwd)
			runtime.KeepAlive(rev)
			runtime.GC()
			runtime.GC()
			if fwdAlive() || revAlive() {
				t.Fatalf("the patched index pins its build array (forward %v, reverse %v)", fwdAlive(), revAlive())
			}
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
		})
	}
}

// TestForkBeforeFirstPatchKeepsBuild: a fork taken before the first
// Patch keeps answering for the graph it was taken at, exactly like a
// from-scratch build of that graph, while the patched index answers for
// the new one.
func TestForkBeforeFirstPatchKeepsBuild(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			g := shape.graph(rng, 120)
			before := g.Clone()
			ic, err := NewIncrementalClosure(g)
			if err != nil {
				t.Fatal(err)
			}
			fwd, rev := ic.Labels().Fork(), ic.RevLabels().Fork()
			for i := 0; i < 40; i++ {
				u, v := rng.Intn(120), rng.Intn(120)
				if u > v {
					u, v = v, u // index order is topological
				}
				if u != v {
					if _, err := ic.AddEdge(u, v, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			if ic.LabelPatches() == 0 {
				t.Fatal("no edge patched the labels")
			}
			checkMostly(t, shape.name, fwd, rev)
			checkLabelsMatchClosure(t, before, fwd)
			checkLabelsMatchClosure(t, before.Reversed(), rev)
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
			checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.RevLabels())
		})
	}
}
