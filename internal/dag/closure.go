package dag

import (
	"runtime"
	"sync"

	"wolves/internal/bitset"
)

// Closure is a reachability matrix: one bit row per node holding the
// reflexive-transitive successors of that node. Rows live in a single
// flat bitset.Matrix (one allocation, cache-friendly row adjacency);
// Row exposes each row as a zero-copy view for the Set-based callers.
type Closure struct {
	m     *bitset.Matrix
	views []bitset.Set // row view headers, built once at construction
}

func newClosure(n int) *Closure {
	c := &Closure{m: bitset.NewMatrix(n, n), views: make([]bitset.Set, n)}
	for u := 0; u < n; u++ {
		c.views[u] = c.m.RowView(u)
	}
	return c
}

// parallelThreshold is the node count below which closure construction
// stays single-threaded: goroutine fan-out costs more than it saves on
// the small workflows that dominate interactive use.
const parallelThreshold = 512

// closureWorkers returns the worker count for closure construction.
func closureWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if n < parallelThreshold || w < 2 {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// Reachability computes the reflexive-transitive closure of g. Acyclic
// graphs use a reverse-topological dynamic program (each row is the
// union of successor rows), parallelized level-by-level across
// runtime.GOMAXPROCS workers on large graphs; cyclic graphs fall back to
// per-source BFS sharded across the same worker pool, so view quotient
// graphs with cycles are still handled.
func (g *Graph) Reachability() *Closure {
	if order, ok := g.topoAnyOrder(); ok {
		return g.reachabilityDP(order)
	}
	return g.ReachabilityBFS()
}

// Matrix returns the flat reachability matrix backing the closure.
func (c *Closure) Matrix() *bitset.Matrix { return c.m }

func (g *Graph) reachabilityDP(order []int) *Closure {
	c := newClosure(g.n)
	workers := closureWorkers(g.n)
	if workers == 1 {
		for i := len(order) - 1; i >= 0; i-- {
			u := order[i]
			c.m.CloseRow(u, g.succs[u])
		}
		return c
	}

	// Level-parallel DP: level(u) = longest path from u to a sink. Rows
	// at the same level never depend on each other, so each level is a
	// parallel stage once all deeper levels are complete.
	level := make([]int32, g.n)
	maxLevel := int32(0)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		lv := int32(0)
		for _, v := range g.succs[u] {
			if l := level[v] + 1; l > lv {
				lv = l
			}
		}
		level[u] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	// Bucket the nodes by level with one counting sort. bound[lv] first
	// counts level lv's nodes, then (prefix sums) marks its end, then
	// (filling from the back) its start, so that level lv ends up as
	// byLevel[bound[lv]:bound[lv+1]], nodes ascending.
	bound := make([]int32, maxLevel+2)
	for _, lv := range level {
		bound[lv]++
	}
	for lv := 1; lv < len(bound); lv++ {
		bound[lv] += bound[lv-1]
	}
	byLevel := make([]int32, g.n)
	for u := g.n - 1; u >= 0; u-- {
		bound[level[u]]--
		byLevel[bound[level[u]]] = int32(u)
	}
	closeRows := func(part []int32) {
		for _, u := range part {
			c.m.CloseRow(int(u), g.succs[u])
		}
	}
	var wg sync.WaitGroup
	for lv := int32(0); lv <= maxLevel; lv++ {
		nodes := byLevel[bound[lv]:bound[lv+1]]
		if len(nodes) < workers {
			// Too small to split: goroutines would cost more than the
			// rows.
			closeRows(nodes)
			continue
		}
		// The caller takes the first chunk itself, workers-1 goroutines
		// the rest.
		chunk := (len(nodes) + workers - 1) / workers
		for lo := chunk; lo < len(nodes); lo += chunk {
			wg.Add(1)
			go func(part []int32) {
				defer wg.Done()
				closeRows(part)
			}(nodes[lo:min(lo+chunk, len(nodes))])
		}
		closeRows(nodes[:chunk])
		wg.Wait()
	}
	return c
}

// ReachabilityBFS computes the closure with one graph search per source
// node, sharded across the worker pool (each worker owns a disjoint row
// range, so no synchronization is needed beyond the final join). Exposed
// for the A3 ablation benchmark; Reachability chooses automatically.
func (g *Graph) ReachabilityBFS() *Closure {
	c := newClosure(g.n)
	workers := closureWorkers(g.n)
	if workers == 1 {
		g.bfsRange(c, 0, g.n, make([]int, 0, g.n))
		return c
	}
	var wg sync.WaitGroup
	chunk := (g.n + workers - 1) / workers
	for lo := 0; lo < g.n; lo += chunk {
		hi := lo + chunk
		if hi > g.n {
			hi = g.n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			g.bfsRange(c, lo, hi, make([]int, 0, g.n))
		}(lo, hi)
	}
	wg.Wait()
	return c
}

// bfsRange fills closure rows [lo, hi) by graph search from each source.
func (g *Graph) bfsRange(c *Closure, lo, hi int, queue []int) {
	for s := lo; s < hi; s++ {
		row := &c.views[s]
		row.Set(s)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.succs[u] {
				if !row.Test(int(v)) {
					row.Set(int(v))
					queue = append(queue, int(v))
				}
			}
		}
	}
}

// Reaches reports whether u reaches v (reflexively: Reaches(u,u) = true).
func (c *Closure) Reaches(u, v int) bool { return c.m.TestBit(u, v) }

// Row returns the reachability row of u as a view over the flat matrix.
// Shared storage; do not mutate.
func (c *Closure) Row(u int) *bitset.Set { return &c.views[u] }

// N returns the number of nodes covered by the closure.
func (c *Closure) N() int { return len(c.views) }

// Pairs returns the number of ordered reachable pairs, excluding the
// reflexive ones. This is the "size" of the provenance relation.
func (c *Closure) Pairs() int {
	total := 0
	for u := range c.views {
		total += c.views[u].Count() - 1
	}
	return total
}
