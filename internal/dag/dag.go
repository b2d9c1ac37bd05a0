// Package dag implements the directed-graph substrate used by WOLVES:
// workflow specifications, view (quotient) graphs and provenance graphs
// are all instances of Graph. It provides topological ordering, cycle
// diagnosis via strongly connected components, reachability closures
// (the engine behind every soundness check), quotient construction and
// transitive reduction.
//
// Nodes are dense integers [0, N). Callers that need identifiers keep
// their own mapping (see internal/workflow).
package dag

import (
	"errors"
	"fmt"
	"slices"

	"wolves/internal/bitset"
)

// Graph is a directed graph over nodes 0..n-1 with forward and reverse
// adjacency. Parallel edges are collapsed; self-loops are rejected.
//
// Successor lists keep insertion order (Edges and Succs are part of the
// deterministic output surface); a sorted mirror of each successor list
// is maintained alongside so HasEdge — and therefore bulk AddEdge
// deduplication — runs in O(log d) instead of a linear scan.
type Graph struct {
	n      int
	m      int
	succs  [][]int32
	preds  [][]int32
	sorted [][]int32 // per-node successors, ascending (dedup index)
}

// ErrCycle is returned by TopoOrder when the graph is not acyclic.
var ErrCycle = errors.New("dag: graph contains a cycle")

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("dag: negative node count")
	}
	return &Graph{
		n:      n,
		succs:  make([][]int32, n),
		preds:  make([][]int32, n),
		sorted: make([][]int32, n),
	}
}

// Build returns the graph over n nodes holding the edges
// edges[2k]→edges[2k+1], inserted in order as successive AddEdge calls
// would insert them: a repeated edge collapses onto its first
// occurrence, and successor and predecessor lists keep insertion order.
// Endpoints must lie in [0, n) and differ; callers validate them first
// (Build panics otherwise).
//
// Every successor list is carved out of one slab, every predecessor
// list out of another, and the sorted mirrors out of a third, each
// capped with a full slice expression: a later AddEdge reallocates the
// one list it grows and never writes over its neighbour's. So a build
// allocates a fixed number of objects whatever the edge count.
func Build(n int, edges []int32) *Graph {
	g := New(n)
	if len(edges) == 0 {
		return g
	}
	// off[u] is where u's successors start in succ; end[u] is one past
	// its last, moving down as the fill below walks the edges backwards.
	off := make([]int32, n+1)
	for k := 0; k < len(edges); k += 2 {
		u, v := edges[k], edges[k+1]
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n || u == v {
			panic(fmt.Sprintf("dag: Build edge %d→%d invalid in a %d-node graph", u, v, n))
		}
		off[u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	succ := make([]int32, len(edges)/2)
	end := make([]int32, n)
	copy(end, off[1:])
	for k := len(edges) - 2; k >= 0; k -= 2 {
		u := edges[k]
		end[u]--
		succ[end[u]] = edges[k+1]
	}
	// Mark repeats -1, walking each list forward: seen[v] == u+1 once v
	// is in u's list. Survivors count towards their target's in-degree.
	seen, pend := end, make([]int32, n)
	clear(seen)
	for u := 0; u < n; u++ {
		for i := off[u]; i < off[u+1]; i++ {
			v := succ[i]
			if seen[v] == int32(u)+1 {
				succ[i] = -1
				continue
			}
			seen[v] = int32(u) + 1
			pend[v]++
			g.m++
		}
	}
	for v := 1; v < n; v++ {
		pend[v] += pend[v-1]
	}
	// Predecessors in insertion order: walk the edges backwards again,
	// filling each list from its end, so pend[v] ends at v's start.
	pred := make([]int32, g.m)
	cur := end
	copy(cur, off[1:])
	for k := len(edges) - 2; k >= 0; k -= 2 {
		u := edges[k]
		cur[u]--
		if v := succ[cur[u]]; v >= 0 {
			pend[v]--
			pred[pend[v]] = u
		}
	}
	for v := 0; v < n; v++ {
		hi := int32(len(pred))
		if v+1 < n {
			hi = pend[v+1]
		}
		if lo := pend[v]; hi > lo {
			g.preds[v] = pred[lo:hi:hi]
		}
	}
	mirrored := 0
	for u := 0; u < n; u++ {
		lo, k := off[u], off[u]
		for _, v := range succ[off[u]:off[u+1]] {
			if v >= 0 {
				succ[k] = v
				k++
			}
		}
		if k > lo {
			g.succs[u] = succ[lo:k:k]
		}
		if int(k-lo) >= mirrorMinDeg {
			mirrored += int(k - lo)
		}
	}
	if mirrored > 0 {
		mirror := make([]int32, 0, mirrored)
		for u := 0; u < n; u++ {
			if s := g.succs[u]; len(s) >= mirrorMinDeg {
				lo := len(mirror)
				mirror = append(mirror, s...)
				slices.Sort(mirror[lo:])
				g.sorted[u] = mirror[lo:len(mirror):len(mirror)]
			}
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of (distinct) edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", u, g.n))
	}
}

// mirrorMinDeg is the out-degree at which a node switches from linear
// duplicate scans to the sorted successor mirror: below it a handful of
// int32 compares beats the insert memmove and the extra allocation.
const mirrorMinDeg = 16

// AddEdge inserts the edge u→v. Self-loops are an error; duplicate edges
// are ignored. It returns true when a new edge was inserted.
func (g *Graph) AddEdge(u, v int) (bool, error) {
	g.checkNode(u)
	g.checkNode(v)
	if u == v {
		return false, fmt.Errorf("dag: self-loop on node %d", u)
	}
	if g.hasEdgeFast(u, v) {
		return false, nil
	}
	g.addEdgeUnchecked(u, v)
	return true, nil
}

// hasEdgeFast is the dedup membership test behind AddEdge/HasEdge:
// binary search when the sorted mirror exists, linear scan otherwise.
func (g *Graph) hasEdgeFast(u, v int) bool {
	if s := g.sorted[u]; s != nil {
		_, ok := slices.BinarySearch(s, int32(v))
		return ok
	}
	for _, w := range g.succs[u] {
		if int(w) == v {
			return true
		}
	}
	return false
}

// addEdgeUnchecked appends a pre-deduplicated, pre-validated edge,
// building or maintaining the sorted mirror past the degree threshold.
func (g *Graph) addEdgeUnchecked(u, v int) {
	g.succs[u] = append(g.succs[u], int32(v))
	g.preds[v] = append(g.preds[v], int32(u))
	g.m++
	switch s := g.sorted[u]; {
	case s != nil:
		pos, _ := slices.BinarySearch(s, int32(v))
		g.sorted[u] = slices.Insert(s, pos, int32(v))
	case len(g.succs[u]) >= mirrorMinDeg:
		mirror := append(make([]int32, 0, 2*len(g.succs[u])), g.succs[u]...)
		slices.Sort(mirror)
		g.sorted[u] = mirror
	}
}

// AddNodes appends k isolated nodes and returns the index of the first
// new node. It is the node-growth half of live workflow mutation; the
// IncrementalClosure grows its matrices in step via Grow.
func (g *Graph) AddNodes(k int) int {
	if k < 0 {
		panic("dag: negative node count")
	}
	first := g.n
	g.n += k
	g.succs = append(g.succs, make([][]int32, k)...)
	g.preds = append(g.preds, make([][]int32, k)...)
	g.sorted = append(g.sorted, make([][]int32, k)...)
	return first
}

// PopEdge removes the edge u→v, which must be the most recently inserted
// entry of both u's successor list and v's predecessor list. Unwinding a
// sequence of AddEdge calls in reverse (LIFO) order always satisfies
// this; it exists only for the registry's mutation rollback.
func (g *Graph) PopEdge(u, v int) {
	g.checkNode(u)
	g.checkNode(v)
	su, pv := g.succs[u], g.preds[v]
	if len(su) == 0 || int(su[len(su)-1]) != v || len(pv) == 0 || int(pv[len(pv)-1]) != u {
		panic(fmt.Sprintf("dag: PopEdge(%d,%d): not the most recent edge", u, v))
	}
	g.succs[u] = su[:len(su)-1]
	g.preds[v] = pv[:len(pv)-1]
	g.m--
	if s := g.sorted[u]; s != nil {
		pos, ok := slices.BinarySearch(s, int32(v))
		if !ok {
			panic(fmt.Sprintf("dag: PopEdge(%d,%d): sorted mirror out of sync", u, v))
		}
		g.sorted[u] = slices.Delete(s, pos, pos+1)
	}
}

// TruncateNodes shrinks the graph back to n nodes. Every node being
// removed must be isolated (callers pop its edges first); this is the
// rollback counterpart of AddNodes.
func (g *Graph) TruncateNodes(n int) {
	if n < 0 || n > g.n {
		panic(fmt.Sprintf("dag: cannot truncate %d-node graph to %d", g.n, n))
	}
	for u := n; u < g.n; u++ {
		if len(g.succs[u])+len(g.preds[u]) > 0 {
			panic(fmt.Sprintf("dag: TruncateNodes: node %d still has edges", u))
		}
	}
	g.succs = g.succs[:n]
	g.preds = g.preds[:n]
	g.sorted = g.sorted[:n]
	g.n = n
}

// MustAddEdge is AddEdge for construction code with validated inputs.
func (g *Graph) MustAddEdge(u, v int) {
	if _, err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether u→v exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkNode(u)
	g.checkNode(v)
	return g.hasEdgeFast(u, v)
}

// Succs returns the successors of u. The slice is shared; do not mutate.
func (g *Graph) Succs(u int) []int32 {
	g.checkNode(u)
	return g.succs[u]
}

// Preds returns the predecessors of u. The slice is shared; do not mutate.
func (g *Graph) Preds(u int) []int32 {
	g.checkNode(u)
	return g.preds[u]
}

// OutDeg returns the out-degree of u.
func (g *Graph) OutDeg(u int) int { return len(g.Succs(u)) }

// InDeg returns the in-degree of u.
func (g *Graph) InDeg(u int) int { return len(g.Preds(u)) }

// Sources returns all nodes with in-degree zero, ascending.
func (g *Graph) Sources() []int {
	var out []int
	for u := 0; u < g.n; u++ {
		if len(g.preds[u]) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Sinks returns all nodes with out-degree zero, ascending.
func (g *Graph) Sinks() []int {
	var out []int
	for u := 0; u < g.n; u++ {
		if len(g.succs[u]) == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Edges calls fn for every edge (u,v), ordered by u then insertion.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.succs[u] {
			fn(u, int(v))
		}
	}
}

// Reversed returns a new graph with every edge flipped — the input for
// reverse (ancestor-direction) label indexes.
func (g *Graph) Reversed() *Graph {
	r := New(g.n)
	for v := 0; v < g.n; v++ {
		for _, u := range g.preds[v] {
			r.addEdgeUnchecked(v, int(u))
		}
	}
	return r
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for u := 0; u < g.n; u++ {
		c.succs[u] = append([]int32(nil), g.succs[u]...)
		c.preds[u] = append([]int32(nil), g.preds[u]...)
		c.sorted[u] = append([]int32(nil), g.sorted[u]...)
	}
	return c
}

// TopoOrder returns a topological order (Kahn's algorithm, smallest node
// first for determinism) or ErrCycle. The ready set is a bitset with a
// monotone cursor: popping the minimum is a word-skipping first-set-bit
// scan instead of the seed's O(n) min-scan per pop (or a heap's pointer
// chasing), so the whole sort is close to O(n + m) on real graphs.
func (g *Graph) TopoOrder() ([]int, error) {
	indeg := make([]int, g.n)
	ready := bitset.New(g.n)
	for u := 0; u < g.n; u++ {
		indeg[u] = len(g.preds[u])
		if indeg[u] == 0 {
			ready.Set(u)
		}
	}
	order := make([]int, 0, g.n)
	// Invariant: no ready bit lies below cursor.
	cursor := 0
	for {
		u := ready.NextSet(cursor)
		if u == -1 {
			break
		}
		ready.Clear(u)
		cursor = u
		order = append(order, u)
		for _, v32 := range g.succs[u] {
			v := int(v32)
			indeg[v]--
			if indeg[v] == 0 {
				ready.Set(v)
				if v < cursor {
					cursor = v
				}
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// topoAnyOrder returns some topological order using a FIFO Kahn queue
// (O(n+m), no heap). The closure DP only needs a valid order — the
// closure itself is unique — so the deterministic-smallest-first
// guarantee of TopoOrder is not paid for on that hot path.
func (g *Graph) topoAnyOrder() ([]int, bool) {
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		indeg[u] = len(g.preds[u])
	}
	queue := make([]int, 0, g.n)
	for u := 0; u < g.n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, int(v))
			}
		}
	}
	return queue, len(queue) == g.n
}

// IsAcyclic reports whether g has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, ok := g.topoAnyOrder()
	return ok
}

// SCC returns the strongly connected components of g (Tarjan, iterative),
// each sorted ascending, components ordered by smallest member. Trivial
// single-node components are included.
func (g *Graph) SCC() [][]int {
	comp, k := g.sccIndex()
	size := make([]int, k+1)
	for _, c := range comp {
		size[c+1]++
	}
	for c := 1; c <= k; c++ {
		size[c] += size[c-1]
	}
	flat := make([]int, g.n)
	comps := make([][]int, k)
	for c := range comps {
		comps[c] = flat[size[c]:size[c]:size[c+1]]
	}
	for u, c := range comp {
		comps[c] = append(comps[c], u)
	}
	return comps
}

// sccIndex numbers the strongly connected components of g (Tarjan,
// iterative) and returns each node's component and the component count.
// Components are numbered by smallest member, as SCC orders them, and
// the whole computation makes a fixed number of allocations.
func (g *Graph) sccIndex() (comp []int32, k int) {
	const unvisited = -1
	index := make([]int32, g.n)
	low := make([]int32, g.n)
	comp = make([]int32, g.n) // Tarjan's completion order, renumbered below
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var (
		stack  []int32
		idx    int32
		frames []frame
	)
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{u: root})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.u
			if f.i == 0 {
				index[u] = idx
				low[u] = idx
				idx++
				stack = append(stack, int32(u))
			}
			advanced := false
			for f.i < len(g.succs[u]) {
				v := g.succs[u][f.i]
				f.i++
				if index[v] == unvisited {
					frames = append(frames, frame{u: int(v)})
					advanced = true
					break
				}
				// On the stack: visited and not yet assigned a component.
				if comp[v] == unvisited && index[v] < low[u] {
					low[u] = index[v]
				}
			}
			if advanced {
				continue
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = int32(k)
					if int(w) == u {
						break
					}
				}
				k++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].u
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
		}
	}
	// Renumber by smallest member: scanning nodes in ascending order
	// meets each component first at its smallest member. index is free
	// scratch now, reused as the old→new component map.
	rename := index[:k]
	for i := range rename {
		rename[i] = unvisited
	}
	next := int32(0)
	for u, c := range comp {
		if rename[c] == unvisited {
			rename[c] = next
			next++
		}
		comp[u] = rename[c]
	}
	return comp, k
}

type frame struct {
	u, i int
}

// maxDenseQuotientBits caps the k×k dedup bitset of Quotient at 8 MiB;
// larger quotients fall back to the map so memory stays proportional to
// the edge count.
const maxDenseQuotientBits = 1 << 26

// Quotient builds the quotient graph induced by the partition partOf,
// where partOf[u] ∈ [0,k) names u's block. Inter-block multi-edges are
// collapsed; intra-block edges are dropped. The quotient of a DAG may be
// cyclic; callers diagnose that with SCC or TopoOrder. The block edges
// are collected in order and built in bulk (Build), so a quotient
// allocates a fixed number of objects whatever its size.
func (g *Graph) Quotient(partOf []int, k int) (*Graph, error) {
	if len(partOf) != g.n {
		return nil, fmt.Errorf("dag: partition has %d entries, graph has %d nodes", len(partOf), g.n)
	}
	// Dedup inter-block edges with a flat k×k bitset (one allocation,
	// O(1) membership) instead of a map keyed by bu*k+bv.
	var seenBits *bitset.Set
	var seenMap map[int64]bool
	if k > 0 && k <= maxDenseQuotientBits/k {
		seenBits = bitset.New(k * k)
	} else {
		seenMap = make(map[int64]bool, g.m)
	}
	var edges []int32
	for u := 0; u < g.n; u++ {
		bu := partOf[u]
		if bu < 0 || bu >= k {
			return nil, fmt.Errorf("dag: node %d assigned to invalid block %d", u, bu)
		}
		for _, v32 := range g.succs[u] {
			bv := partOf[v32]
			if bv < 0 || bv >= k {
				return nil, fmt.Errorf("dag: node %d assigned to invalid block %d", v32, bv)
			}
			if bu == bv {
				continue
			}
			if seenBits != nil {
				key := bu*k + bv
				if seenBits.Test(key) {
					continue
				}
				seenBits.Set(key)
			} else {
				key := int64(bu)*int64(k) + int64(bv)
				if seenMap[key] {
					continue
				}
				seenMap[key] = true
			}
			if edges == nil {
				edges = make([]int32, 0, 2*min(g.m, k*k))
			}
			edges = append(edges, int32(bu), int32(bv))
		}
	}
	return Build(k, edges), nil
}

// TransitiveReduction returns a copy of g with every edge u→v removed
// when an alternative path u→…→v of length ≥ 2 exists. g must be acyclic.
//
// An edge u→v is redundant iff some other successor w of u reaches v
// (closure row test). Sweeping u's successor list forward and backward
// against a running union of closure rows catches every such witness —
// whichever side of v it appears on — with one Or plus one Test per
// edge and no nested successor scans.
func (g *Graph) TransitiveReduction() (*Graph, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	cl := g.Reachability()
	r := New(g.n)
	covered := bitset.New(g.n)
	var drop []bool
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		succs := g.succs[u]
		if len(succs) == 0 {
			continue
		}
		keep := make([]int32, 0, len(succs))
		if len(succs) == 1 {
			keep = append(keep, succs[0])
		} else {
			if cap(drop) < len(succs) {
				drop = make([]bool, len(succs))
			}
			drop = drop[:len(succs)]
			for i := range drop {
				drop[i] = false
			}
			covered.Reset()
			for i, w := range succs { // witnesses listed before v
				if covered.Test(int(w)) {
					drop[i] = true
				}
				covered.Or(cl.Row(int(w)))
			}
			covered.Reset()
			for i := len(succs) - 1; i >= 0; i-- { // witnesses after v
				if covered.Test(int(succs[i])) {
					drop[i] = true
				}
				covered.Or(cl.Row(int(succs[i])))
			}
			for i, w := range succs {
				if !drop[i] {
					keep = append(keep, w)
				}
			}
		}
		r.succs[u] = keep
		r.m += len(keep)
		for _, v := range keep {
			indeg[v]++
		}
	}
	for v := 0; v < g.n; v++ {
		if indeg[v] > 0 {
			r.preds[v] = make([]int32, 0, indeg[v])
		}
	}
	for u := 0; u < g.n; u++ {
		for _, v := range r.succs[u] {
			r.preds[v] = append(r.preds[v], int32(u))
		}
	}
	return r, nil
}
