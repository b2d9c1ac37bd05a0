package dag

import (
	"math/rand"
	"testing"
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
// closure for every ordered pair, and that the ordered iterator
// enumerates exactly the closure row members.
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
	var buf []int32
	for u := 0; u < n; u++ {
		buf = l.AppendReachable(buf[:0], u)
		members := c.Row(u).Members()
		if len(buf) != len(members) {
			t.Fatalf("AppendReachable(%d): %d nodes, closure row has %d", u, len(buf), len(members))
		}
		for i, m := range members {
			if int(buf[i]) != m {
				t.Fatalf("AppendReachable(%d)[%d] = %d, want %d", u, i, buf[i], m)
			}
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
// through IncrementalClosure edge and node additions (Patch, Grow,
// patch-budget rebuilds), checking them against the closure as they
// go; every Fork taken along the way must keep answering for the graph
// it was taken at.
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
			if ic.LabelRebuilds() == 0 {
				t.Fatal("expected at least one threshold rebuild over 1200 mutations")
			}
		})
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
