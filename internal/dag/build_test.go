package dag

import (
	"math/rand"
	"slices"
	"testing"
)

// sameAdjacency fails unless a and b hold the same successor,
// predecessor and sorted-mirror lists, in the same order.
func sameAdjacency(t *testing.T, what string, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: %d nodes %d edges, want %d nodes %d edges", what, a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.succs[u], b.succs[u]) || !slices.Equal(a.preds[u], b.preds[u]) {
			t.Fatalf("%s: node %d: succs %v preds %v, want succs %v preds %v", what, u, a.succs[u], a.preds[u], b.succs[u], b.preds[u])
		}
		if !slices.Equal(a.sorted[u], b.sorted[u]) {
			t.Fatalf("%s: node %d: mirror %v, want %v", what, u, a.sorted[u], b.sorted[u])
		}
	}
}

// TestBuildMatchesAddEdge pins the bulk constructor to the AddEdge
// sequence it stands for — repeated edges collapsed onto their first
// occurrence, insertion order kept in both directions, sorted mirrors
// past the degree threshold — and checks that editing a built graph
// (AddEdge, PopEdge, AddNodes) never writes over a neighbour's list
// carved from the same slab.
func TestBuildMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var edges []int32
		for k := rng.Intn(6 * n); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if trial%3 == 0 && n > 1 {
				u = 0 // hubs past the mirror threshold
			}
			if u == v {
				continue
			}
			edges = append(edges, int32(u), int32(v))
			if rng.Intn(4) == 0 {
				edges = append(edges, int32(u), int32(v)) // a repeat
			}
		}
		want := New(n)
		for k := 0; k < len(edges); k += 2 {
			want.MustAddEdge(int(edges[k]), int(edges[k+1]))
		}
		got := Build(n, edges)
		sameAdjacency(t, "build", got, want)

		// Edit both the same way: every list the edits touch must grow
		// on its own, leaving the neighbours carved next to it intact.
		first := got.AddNodes(2)
		want.AddNodes(2)
		var added [][2]int
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n+2), rng.Intn(n+2)
			if u == v {
				continue
			}
			ok, _ := got.AddEdge(u, v)
			ok2, _ := want.AddEdge(u, v)
			if ok != ok2 {
				t.Fatalf("trial %d: AddEdge(%d,%d) inserted %v, want %v", trial, u, v, ok, ok2)
			}
			if ok {
				added = append(added, [2]int{u, v})
			}
		}
		sameAdjacency(t, "after AddEdge", got, want)
		for i := len(added) - 1; i >= len(added)/2; i-- {
			got.PopEdge(added[i][0], added[i][1])
			want.PopEdge(added[i][0], added[i][1])
		}
		sameAdjacency(t, "after PopEdge", got, want)
		for _, e := range [][2]int{{first, 0}, {0, first + 1}} {
			if e[0] < n+2 && e[1] < n+2 && e[0] != e[1] {
				got.AddEdge(e[0], e[1])
				want.AddEdge(e[0], e[1])
			}
		}
		sameAdjacency(t, "after regrowth", got, want)
	}
}

// TestBuildAllocations holds the bulk constructor to a fixed number of
// allocations whatever the edge count.
func TestBuildAllocations(t *testing.T) {
	for _, n := range []int{256, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		edges := make([]int32, 0, 16*n)
		for len(edges) < cap(edges) {
			u := rng.Intn(n - 1)
			edges = append(edges, int32(u), int32(u+1+rng.Intn(n-1-u)))
		}
		if a := testing.AllocsPerRun(10, func() { Build(n, edges) }); a > 10 {
			t.Fatalf("n=%d: Build allocates %.0f objects", n, a)
		}
	}
}

// TestQuotientMatchesAddEdge pins the bulk-built quotient to the one
// AddEdge builds from the same walk: block edges in first-seen order,
// both directions, mirrors included.
func TestQuotientMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(60)
		g := New(n)
		for k := rng.Intn(8 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.MustAddEdge(u, v)
			}
		}
		k := 1 + rng.Intn(n)
		part := make([]int, n)
		for i := range part {
			part[i] = rng.Intn(k)
		}
		want := New(k)
		g.Edges(func(u, v int) {
			if part[u] != part[v] {
				want.MustAddEdge(part[u], part[v])
			}
		})
		got, err := g.Quotient(part, k)
		if err != nil {
			t.Fatal(err)
		}
		sameAdjacency(t, "quotient", got, want)
	}
}
