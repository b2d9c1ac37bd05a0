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

// labelBudgets are the interval budgets the label property tests run
// under: the production budget, which keeps these graphs on interval
// rows, and zero, which forces bitmap rows.
var labelBudgets = []struct {
	name   string
	budget func(n int) int
}{
	{"intervals", labelBudget},
	{"bitmap", func(int) int { return 0 }},
}

// checkRowKind asserts that a non-empty l holds only the kind of rows
// named by want ("intervals" or "bitmap").
func checkRowKind(t *testing.T, l *Labels, want string) {
	t.Helper()
	got := "mixed"
	switch {
	case l.rows != nil && l.bitRows == nil:
		got = "intervals"
	case l.bitRows != nil && l.rows == nil:
		got = "bitmap"
	}
	if l.N() > 0 && got != want {
		t.Fatalf("want %s rows, index holds %s rows", want, got)
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
	for _, lb := range labelBudgets {
		t.Run(lb.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			for _, n := range []int{0, 1, 2, 3, 8, 17, 40, 80, 130} {
				for _, p := range []float64{0, 0.02, 0.1, 0.4, 0.9} {
					g := randDAG(rng, n, p)
					l := buildLabels(g, lb.budget(n))
					checkRowKind(t, l, lb.name)
					checkLabelsMatchClosure(t, g, l)
				}
			}
		})
	}
}

// TestLabelsMatchClosureCyclic covers the condensed (SCC-sharing) build
// on raw random digraphs and on quotients of random DAGs under random
// partitions — the cyclic view graphs of unsound views.
func TestLabelsMatchClosureCyclic(t *testing.T) {
	for _, lb := range labelBudgets {
		t.Run(lb.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			var graphs []*Graph
			for _, n := range []int{2, 3, 8, 17, 40, 90} {
				for _, p := range []float64{0.05, 0.15, 0.5} {
					graphs = append(graphs, randDigraph(rng, n, p))
					g := randDAG(rng, n, p)
					k := 1 + rng.Intn(n/2+1)
					partOf := make([]int, n)
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
				l := buildLabels(g, lb.budget(g.N()))
				checkRowKind(t, l, lb.name)
				checkLabelsMatchClosure(t, g, l)
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
// keeps the pair under twice its built size never rebuilds, and (for
// interval rows, whose covers patches can fragment) one that fragments
// the covers rebuilds exactly when the patched pair would pass 2×.
func TestLabelsGrowAndPatchViaIncremental(t *testing.T) {
	for _, lb := range labelBudgets {
		t.Run(lb.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(10))
			ic, err := newIncrementalClosure(New(6), lb.budget)
			if err != nil {
				t.Fatal(err)
			}
			type fork struct {
				g        *Graph
				fwd, rev *Labels
			}
			var forks []fork
			check := func() {
				fwd, rev := ic.Labels(), ic.RevLabels()
				checkRowKind(t, fwd, lb.name)
				checkRowKind(t, rev, lb.name)
				checkLabelsMatchClosure(t, ic.Graph(), fwd)
				checkLabelsMatchClosure(t, ic.Graph().Reversed(), rev)
				forks = append(forks, fork{g: ic.Graph().Clone(), fwd: fwd.Fork(), rev: rev.Fork()})
			}
			for step := 0; step < 1200; step++ {
				if rng.Intn(12) == 0 {
					ic.Grow(1 + rng.Intn(3))
				}
				n := ic.N()
				if n >= 2 {
					u, v := rng.Intn(n), rng.Intn(n)
					_, _ = ic.AddEdge(u, v, nil) // cycles/self-loops rejected, fine
				}
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
				checkPatchHistoryKeepsLabels(t, lb.budget)
			})
			if lb.name == "intervals" {
				t.Run("fragmented past 2x rebuilds", checkFragmentedLabelsRebuild)
			}
		})
	}
}

// checkPatchHistoryKeepsLabels drives a long history of local forward
// edges (spanning at most n/16 nodes of a layered DAG) and asserts the
// patched pair stays under twice its built size and is never rebuilt,
// while answering exactly like the closure.
func checkPatchHistoryKeepsLabels(t *testing.T, budget func(int) int) {
	const n = 512
	ic, err := newIncrementalClosure(layeredDAG(n, 8, 0.05, 0, 12), budget)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 1; i <= 1500; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(min(n/16, n-1-u))
		if _, err := ic.AddEdge(u, v, nil); err != nil {
			t.Fatal(err) // index order is topological
		}
		if i%500 == 0 {
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
// which splits every cover into alternating positions, and asserts the
// pair is rebuilt exactly at the first edge after which its patched
// size would exceed twice the built size — computed independently as
// the canonical cover of every reach set over the pair's positions —
// and that the rebuilt pair matches the closure.
func checkFragmentedLabelsRebuild(t *testing.T) {
	const n = 64
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
		crossed = referenceCoverSize(ic.Graph(), fwd, rev) > 2*built
		want := int64(0)
		if crossed {
			want = 1
		}
		if ic.LabelRebuilds() != want {
			t.Fatalf("edge %d→%d: %d rebuilds, want %d (patched size %d, built %d)",
				i, i+2, ic.LabelRebuilds(), want, referenceCoverSize(ic.Graph(), fwd, rev), built)
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

// referenceCoverSize is the interval count of the canonical covers of
// every reach set of g (forward over fwd's positions, ancestors over
// rev's), merged by the reference mergeIntervals.
func referenceCoverSize(g *Graph, fwd, rev *Labels) int {
	c := g.Reachability()
	size := 0
	for u := 0; u < g.N(); u++ {
		var down, up []Interval
		for v := 0; v < g.N(); v++ {
			if c.Reaches(u, v) {
				down = append(down, Interval{fwd.pos[v], fwd.pos[v]})
			}
			if c.Reaches(v, u) {
				up = append(up, Interval{rev.pos[v], rev.pos[v]})
			}
		}
		size += len(mergeIntervals(nil, down)) + len(mergeIntervals(nil, up))
	}
	return size
}

// mergeIntervals is the reference merge: it sorts ivs by Lo and
// coalesces overlapping or adjacent intervals into dst (reset to length
// 0 first). Positions are integral, so [1,3] and [4,6] merge into [1,6].
func mergeIntervals(dst, ivs []Interval) []Interval {
	dst = dst[:0]
	if len(ivs) == 0 {
		return dst
	}
	slices.SortFunc(ivs, func(a, b Interval) int { return int(a.Lo) - int(b.Lo) })
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.Lo <= cur.Hi+1 {
			if iv.Hi > cur.Hi {
				cur.Hi = iv.Hi
			}
			continue
		}
		dst = append(dst, cur)
		cur = iv
	}
	return append(dst, cur)
}

// TestLabelKernelsMatchReference is the differential test of the
// sort-free kernels. Build: every interval row equals the reference
// cover — the sort-based merge of the singleton positions the closure
// says the node reaches — and the reverse index of BuildLabelPair
// equals BuildLabels of the reversed graph row for row. Sizes straddle
// word boundaries so runs end on bit 63 and cross words. Patch: every
// patched row equals the reference merge of the two covers and is
// allocated at exactly its length.
func TestLabelKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 300} {
		for _, p := range []float64{0.3 / float64(n), 3 / float64(n), 0.05} {
			for _, g := range []*Graph{randDAG(rng, n, p), randDigraph(rng, n, p/2)} {
				fwd, rev := buildLabelPair(g, labelBudget(n))
				checkRowKind(t, fwd, "intervals")
				checkRowsMatchReference(t, g, fwd, false)
				checkRowsMatchReference(t, g, rev, true)
				if want := BuildLabels(g.Reversed()); !reflect.DeepEqual(rev, want) {
					t.Fatalf("n=%d: BuildLabelPair's reverse index differs from BuildLabels(g.Reversed())", n)
				}
				if g.IsAcyclic() {
					checkPatchMatchesReference(t, rng, fwd)
				}
			}
		}
	}
}

// checkRowsMatchReference compares every row of l with the reference
// cover of the node's reach set (its ancestors when up is set).
func checkRowsMatchReference(t *testing.T, g *Graph, l *Labels, up bool) {
	t.Helper()
	c := g.Reachability()
	for u := 0; u < g.N(); u++ {
		var ivs []Interval
		for v := 0; v < g.N(); v++ {
			if (!up && c.Reaches(u, v)) || (up && c.Reaches(v, u)) {
				ivs = append(ivs, Interval{l.pos[v], l.pos[v]})
			}
		}
		if want := mergeIntervals(nil, ivs); !slices.Equal(l.rows[u], want) {
			t.Fatalf("n=%d up=%v: row %d = %v, reference %v", g.N(), up, u, l.rows[u], want)
		}
	}
}

// checkPatchMatchesReference patches random row pairs of a fork of l and
// checks each result against the reference merge and for cap == len.
func checkPatchMatchesReference(t *testing.T, rng *rand.Rand, l *Labels) {
	t.Helper()
	f := l.Fork()
	for i := 0; i < 2*f.N(); i++ {
		w, v := rng.Intn(f.N()), rng.Intn(f.N())
		want := mergeIntervals(nil, append(slices.Clone(f.rows[w]), f.rows[v]...))
		before := f.intervals - len(f.rows[w])
		f.Patch(w, v)
		got := f.rows[w]
		if !slices.Equal(got, want) {
			t.Fatalf("Patch(%d,%d) = %v, reference %v", w, v, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("Patch(%d,%d): cap %d != len %d", w, v, cap(got), len(got))
		}
		if f.intervals != before+len(got) {
			t.Fatalf("Patch(%d,%d): interval count %d, want %d", w, v, f.intervals, before+len(got))
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
	for _, lb := range labelBudgets {
		t.Run(lb.name, func(t *testing.T) {
			g := New(5)
			g.MustAddEdge(0, 1)
			g.MustAddEdge(1, 2)
			ic, err := newIncrementalClosure(g, lb.budget)
			if err != nil {
				t.Fatal(err)
			}
			snap := ic.Labels().Fork()
			if _, err := ic.AddEdge(2, 3, nil); err != nil {
				t.Fatal(err)
			}
			ic.Grow(2)
			// The fork answers for the old world: 2 did not reach 3.
			if snap.Reaches(2, 3) {
				t.Fatal("fork sees a post-fork edge")
			}
			if !snap.Reaches(0, 2) {
				t.Fatal("fork lost a pre-fork path")
			}
			// The live index answers for the new world.
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
		})
	}
}

func TestLabelsStats(t *testing.T) {
	g := randDAG(rand.New(rand.NewSource(11)), 30, 0.1)
	l := BuildLabels(g)
	if l.N() != 30 {
		t.Fatalf("N = %d", l.N())
	}
	if l.Intervals() <= 0 {
		t.Fatal("no intervals counted")
	}
	if l.MemoryBytes() <= 0 {
		t.Fatal("no memory accounted")
	}
	// Bitmap rows: no intervals, and one MarkWords(n)-word row per node
	// (every node is its own component here).
	b := buildLabels(g, 0)
	if b.Intervals() != 0 {
		t.Fatalf("bitmap index counts %d intervals", b.Intervals())
	}
	if want := int64(30*MarkWords(30)) * 8; b.MemoryBytes() < want || b.MemoryBytes() > want+64*30 {
		t.Fatalf("bitmap index MemoryBytes = %d, want %d + O(n)", b.MemoryBytes(), want)
	}
}

// rowArrayProbe reports, when called, whether the backing array of l's
// row u is still reachable.
func rowArrayProbe(l *Labels, u int) func() bool {
	if l.bitRows != nil {
		p := weak.Make(&l.bitRows[u][0])
		return func() bool { return p.Value() != nil }
	}
	p := weak.Make(&l.rows[u][0])
	return func() bool { return p.Value() != nil }
}

// newIdleEdge returns an edge u→v of ic's graph between two nodes that
// do not reach each other, so inserting it patches both label
// directions.
func newIdleEdge(t *testing.T, ic *IncrementalClosure) (int, int) {
	t.Helper()
	for u := 0; u < ic.N(); u++ {
		for v := 0; v < ic.N(); v++ {
			if u != v && !ic.Labels().Reaches(u, v) && !ic.Labels().Reaches(v, u) {
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
	for _, lb := range labelBudgets {
		t.Run(lb.name, func(t *testing.T) {
			ic, err := newIncrementalClosure(randDAG(rand.New(rand.NewSource(5)), 200, 0.02), lb.budget)
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
	for _, lb := range labelBudgets {
		t.Run(lb.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			g := randDAG(rng, 120, 0.03)
			before := g.Clone()
			ic, err := newIncrementalClosure(g, lb.budget)
			if err != nil {
				t.Fatal(err)
			}
			fwd, rev := ic.Labels().Fork(), ic.RevLabels().Fork()
			for i := 0; i < 40; i++ {
				u, v := rng.Intn(120), rng.Intn(120)
				if u > v {
					u, v = v, u // randDAG's edges run low → high
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
			checkRowKind(t, fwd, lb.name)
			checkLabelsMatchClosure(t, before, fwd)
			checkLabelsMatchClosure(t, before.Reversed(), rev)
			checkLabelsMatchClosure(t, ic.Graph(), ic.Labels())
			checkLabelsMatchClosure(t, ic.Graph().Reversed(), ic.RevLabels())
		})
	}
}
