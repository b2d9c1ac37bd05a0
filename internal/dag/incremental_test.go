package dag

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"wolves/internal/bitset"
)

// checkAgainstScratch asserts that ic's forward closure is
// byte-identical to a from-scratch rebuild of its graph, and that both
// label indexes answer every pair exactly like it: Labels().Reaches(u,
// v) and RevLabels().Reaches(v, u) hold exactly when u reaches v.
func checkAgainstScratch(t *testing.T, ic *IncrementalClosure) {
	t.Helper()
	scratch := ic.Graph().Reachability()
	if !ic.Fwd().Matrix().Equal(scratch.Matrix()) {
		t.Fatalf("forward closure diverged from from-scratch rebuild (n=%d, m=%d)",
			ic.Graph().N(), ic.Graph().M())
	}
	fwd, rev := ic.Labels(), ic.RevLabels()
	for u := 0; u < ic.N(); u++ {
		for v := 0; v < ic.N(); v++ {
			want := scratch.Reaches(u, v)
			if fwd.Reaches(u, v) != want {
				t.Fatalf("Labels().Reaches(%d,%d) = %v, scratch closure says %v", u, v, !want, want)
			}
			if rev.Reaches(v, u) != want {
				t.Fatalf("RevLabels().Reaches(%d,%d) = %v, scratch closure says %v", v, u, !want, want)
			}
		}
	}
}

// TestIncrementalClosureDirtySet pins that the dirty set is exactly the
// changed-row nodes plus the edge endpoints: rows of nodes outside it
// are unchanged, rows of non-endpoint nodes inside it changed.
func TestIncrementalClosureDirtySet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 8 + rng.Intn(57)
		g := New(n)
		ic, _ := NewIncrementalClosure(g)
		for s := 0; s < n*2; s++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || ic.Fwd().Reaches(v, u) {
				continue
			}
			before := ic.Fwd().Matrix().Clone()
			dirty := bitset.New(n)
			added, err := ic.AddEdge(u, v, dirty)
			if err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
			}
			if !added {
				if dirty.Any() {
					t.Fatalf("duplicate edge %d→%d produced dirty nodes %v", u, v, dirty)
				}
				continue
			}
			for w := 0; w < n; w++ {
				beforeRow := before.RowView(w)
				changed := !beforeRow.Equal(ic.Fwd().Row(w))
				if changed && !dirty.Test(w) {
					t.Fatalf("row %d changed but is not dirty after %d→%d", w, u, v)
				}
				if !changed && dirty.Test(w) && w != u && w != v {
					t.Fatalf("row %d unchanged but dirty (and not an endpoint) after %d→%d", w, u, v)
				}
			}
		}
	}
}

// TestIncrementalClosureRollback verifies that a rollback after a
// partially applied batch restores the exact pre-batch state, and that
// a rollback with nothing to undo touches nothing. Subtests run over
// both row shapes (rowShapes).
func TestIncrementalClosureRollback(t *testing.T) {
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) { checkRollback(t, shape.graph(rand.New(rand.NewSource(3)), 40)) })
	}
}

func checkRollback(t *testing.T, g *Graph) {
	n := g.N()
	ic, err := NewIncrementalClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	wantFwd := ic.Fwd().Matrix().Clone()
	wantM := g.M()

	// Apply a batch: one new node, two edges, then pretend the next edge
	// failed and roll everything back.
	u, v := newIdleEdge(t, ic)
	ic.Grow(1)
	checkAgainstScratch(t, ic)
	applied := [][2]int{}
	for _, e := range [][2]int{{u, v}, {v, n}} {
		if _, err := ic.AddEdge(e[0], e[1], nil); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
		applied = append(applied, e)
		checkAgainstScratch(t, ic)
	}
	ic.Rollback(n, applied)

	if ic.N() != n || ic.Graph().M() != wantM {
		t.Fatalf("rollback left n=%d m=%d, want n=%d m=%d", ic.N(), ic.Graph().M(), n, wantM)
	}
	if !ic.Fwd().Matrix().Equal(wantFwd) {
		t.Fatal("rollback did not restore the forward closure")
	}
	checkAgainstScratch(t, ic)

	// A batch rejected at its first edge applied nothing: the rollback
	// must keep every structure, not rebuild it.
	a := slices.IndexFunc(ic.g.succs, func(s []int32) bool { return len(s) > 0 })
	fwd, labels, rev, builds := ic.Fwd(), ic.Labels(), ic.RevLabels(), ic.LabelBuilds()
	if _, err := ic.AddEdge(int(ic.g.succs[a][0]), a, nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("AddEdge(%d,%d) = %v, want a cycle rejection", ic.g.succs[a][0], a, err)
	}
	ic.Rollback(n, nil)
	if ic.Fwd() != fwd || ic.Labels() != labels || ic.RevLabels() != rev || ic.LabelBuilds() != builds {
		t.Fatal("a rollback with nothing to undo replaced the closure or labels")
	}
	checkAgainstScratch(t, ic)
}

// TestIncrementalClosureRejectsCyclicGraph pins the constructor contract.
func TestIncrementalClosureRejectsCyclicGraph(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if _, err := NewIncrementalClosure(g); !errors.Is(err, ErrCycle) {
		t.Fatalf("cyclic graph accepted: %v", err)
	}
}

// TestGraphPopEdgeAndTruncate covers the LIFO rollback primitives.
func TestGraphPopEdgeAndTruncate(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	first := g.AddNodes(2)
	if first != 3 || g.N() != 5 {
		t.Fatalf("AddNodes: first=%d n=%d, want 3, 5", first, g.N())
	}
	g.MustAddEdge(1, 3)
	g.MustAddEdge(3, 4)
	g.PopEdge(3, 4)
	g.PopEdge(1, 3)
	g.TruncateNodes(3)
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("after rollback: n=%d m=%d, want 3, 1", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) {
		t.Fatal("surviving edge 0→1 lost")
	}
	// The sorted mirror must stay consistent through pops past the
	// mirror-building threshold.
	big := New(mirrorMinDeg + 4)
	for v := 1; v <= mirrorMinDeg+2; v++ {
		big.MustAddEdge(0, v)
	}
	big.PopEdge(0, mirrorMinDeg+2)
	if big.HasEdge(0, mirrorMinDeg+2) {
		t.Fatal("popped edge still visible through the sorted mirror")
	}
	if !big.HasEdge(0, mirrorMinDeg+1) {
		t.Fatal("surviving mirrored edge lost")
	}
}
