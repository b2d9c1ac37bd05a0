package dag

import (
	"math/bits"
	"slices"
	"sync"
)

// This file implements the interval / tree-cover reachability label
// index (Agrawal–Borgida–Jagadish): each node carries a short sorted
// list of postorder intervals whose union covers exactly the postorder
// positions of its reachable set. Membership — "does u reach v?" — is a
// binary search over u's intervals instead of a closure-row bit test,
// and, unlike closure rows, a label of a graph within the interval
// budget fits in a couple of cache lines.
//
// Construction numbers a spanning forest of the condensation in
// postorder (so every subtree owns a contiguous interval), then unions
// successor labels in reverse topological order through a word bitmap
// read back as runs — no sorting anywhere. The reverse (ancestor)
// index is built from the predecessor lists over the same condensation
// (BuildLabelPair). Cyclic inputs (view quotient graphs of unsound
// views) are handled by labeling the condensation: all members of a
// strongly connected component share one label and one postorder
// position, which reproduces the reflexive closure semantics of
// Reachability exactly.
//
// A build makes a fixed number of allocations, however many rows it
// produces: it appends every row's runs to pooled scratch and copies
// them once into one exact-length backing array (bitmap rows: one word
// array), of which each row is a capacity-limited slice. After the
// build, rows are only ever patched: Patch merges two sorted covers in
// one linear pass into a fresh row of exactly the merged length, and
// the owning IncrementalClosure rebuilds the pair only when patching
// has doubled its size (incremental.go). A patched index must not pin
// its build array through the rows it patched away, so the first Patch
// moves every row into an exact allocation of its own; from then on a
// patched-away row is freed on its own. Forks taken before that keep
// reading the immutable build array, and an index that is never patched
// — a view's quotient labels — keeps it for life.
//
// Worst-case label size is O(n) intervals per node. A graph whose
// cover exceeds the interval budget gets bitmap rows instead: each row
// is a position bitmap of MarkWords(n) words, the size of a closure
// row, so the index is total — every graph has one, with memory bounded
// by about one closure matrix — and every operation keeps its contract
// for both row kinds.

// Interval is a closed range [Lo, Hi] of postorder positions.
type Interval struct {
	Lo, Hi int32
}

// Labels is a reachability label index over a fixed node set. It is
// immutable from the reader's point of view: the maintenance entry
// points (Patch, Grow) are called only by the IncrementalClosure that
// owns it, under the registry's write lock, and Fork snapshots the
// mutable row table for lock-free readers.
type Labels struct {
	// pos[u] is the postorder position of u's condensation component.
	// Members of one SCC share a position.
	pos []int32
	// byPosStart/byPosNodes map a postorder position back to its member
	// nodes (CSR layout): position p owns byPosNodes[byPosStart[p]:
	// byPosStart[p+1]]. For acyclic graphs every position is a single
	// node.
	byPosStart []int32
	byPosNodes []int32
	// An index holds exactly one kind of row. rows[u] is u's sorted,
	// disjoint, non-adjacent interval cover; bitRows[u] (over-budget
	// graphs only) is u's reachable positions as a bitmap, words past
	// its length being zero. Members of one SCC share a row at build
	// time; Patch always installs a freshly allocated row, never
	// mutates one in place, so forked snapshots stay immutable.
	rows    [][]Interval
	bitRows [][]uint64
	// shared reports that the built rows are still capacity-limited
	// slices of the build's one backing array; the first Patch moves
	// them out (copyOut).
	shared bool

	intervals int // current total interval count across rows
	words     int // current total word count across bitRows
}

// labelBudgetFactor bounds the total interval count of a label index to
// factor×n (+ a small constant floor). Beyond it the cover is
// degenerating toward quadratic memory and bitmap rows are the better
// representation, so the build switches to them. 128 admits dense
// layered DAGs (a 4096-task, 16-layer, p=0.05 graph needs ~85
// intervals/node ≈ 2.7 MB) while still refusing covers within ~3% of
// the quadratic worst case at that size.
const labelBudgetFactor = 128

func labelBudget(n int) int { return labelBudgetFactor*n + 256 }

// BuildLabels computes the label index of g, cyclic or not. It never
// returns nil: a graph over the interval budget gets bitmap rows.
func BuildLabels(g *Graph) *Labels { return buildLabels(g, labelBudget(g.n)) }

// BuildLabelPair computes the forward label index of g and its reverse
// (ancestor-direction) index in one pass: the reverse index is built
// from g's predecessor lists over the same condensation, so it equals
// BuildLabels of the reversed graph without materializing that graph.
func BuildLabelPair(g *Graph) (fwd, rev *Labels) { return buildLabelPair(g, labelBudget(g.n)) }

// buildLabels is BuildLabels with an explicit interval budget (tests
// force bitmap rows with a budget of 0).
func buildLabels(g *Graph, budget int) *Labels {
	return condense(g).labels(g.succs, budget)
}

// buildLabelPair is BuildLabelPair with an explicit interval budget.
func buildLabelPair(g *Graph, budget int) (fwd, rev *Labels) {
	c := condense(g)
	return c.labels(g.succs, budget), c.labels(g.preds, budget)
}

// condensation is the strongly-connected-component structure of a graph,
// shared by its forward and reverse label builds (a graph and its
// reverse have the same components).
type condensation struct {
	// sccOf[u] names u's component. Component c owns members[start[c]:
	// start[c+1]], ascending; components are ordered by smallest member,
	// so an acyclic graph's components are its nodes, in order.
	sccOf   []int32
	start   []int32
	members []int32
}

func condense(g *Graph) *condensation {
	n := g.n
	if g.IsAcyclic() {
		// Every node is its own component: sccOf, start and members are
		// all the identity, slices of one array.
		ident := make([]int32, n+1)
		for u := range ident {
			ident[u] = int32(u)
		}
		return &condensation{sccOf: ident[:n:n], start: ident, members: ident[:n:n]}
	}
	// Group nodes by component with one counting sort: nodes are placed
	// in ascending order, so each component's members come out ascending.
	comp, k := g.sccIndex()
	cd := &condensation{sccOf: comp}
	flat := make([]int32, k+1+n)
	cd.start, cd.members = flat[:k+1], flat[k+1:]
	for _, c := range comp {
		cd.start[c+1]++
	}
	for c := 1; c <= k; c++ {
		cd.start[c] += cd.start[c-1]
	}
	fill := make([]int32, k)
	copy(fill, cd.start[:k])
	for u, c := range comp {
		cd.members[fill[c]] = int32(u)
		fill[c]++
	}
	return cd
}

// labelScratch is the transient state of one direction's label build,
// pooled across builds. Rows are appended to ivs one component after
// another in postorder — the component at position q owns
// ivs[off[q]:off[q+1]] — and copied out once, into the index's one
// backing array, when the build completes.
type labelScratch struct {
	post  []int32
	order []int32
	stack []dfsFrame
	mark  []uint64
	ivs   []Interval
	off   []int32
	// The condensation adjacency of a cyclic graph: csuccs[c] is
	// cadj[cend[c-1]:cend[c]]; stamp deduplicates while it is derived.
	csuccs [][]int32
	cadj   []int32
	cend   []int32
	stamp  []int32
}

type dfsFrame struct {
	c int32
	i int
}

var labelScratchPool = sync.Pool{New: func() any { return new(labelScratch) }}

// grow returns s resliced to length n, reallocated only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns ivs with room for k more intervals, at least doubling
// its capacity when it must grow: append's gentler growth on large
// slices would reallocate the scratch a dozen times in one big build.
func reserve(ivs []Interval, k int) []Interval {
	if len(ivs)+k <= cap(ivs) {
		return ivs
	}
	grown := make([]Interval, len(ivs), max(2*cap(ivs), len(ivs)+k))
	copy(grown, ivs)
	return grown
}

// labels builds the label index over one direction of the graph: adj is
// its successor lists (forward index) or predecessor lists (reverse
// index).
func (cd *condensation) labels(adj [][]int32, budget int) *Labels {
	n, p := len(cd.sccOf), len(cd.start)-1
	l := &Labels{
		pos:        make([]int32, n),
		byPosStart: make([]int32, 1, n+1),
		byPosNodes: make([]int32, 0, n),
	}
	if n == 0 {
		l.rows = [][]Interval{}
		return l
	}
	sc := labelScratchPool.Get().(*labelScratch)
	defer labelScratchPool.Put(sc)

	// Condensation adjacency. Every component of an acyclic graph is
	// its own node, and a Graph has neither parallel edges nor
	// self-loops, so adj is already the condensation's adjacency;
	// otherwise it is derived into pooled scratch.
	csuccs := adj
	if p < n {
		csuccs = sc.condenseAdj(cd, adj)
	}

	// Spanning forest + postorder numbering over the condensation:
	// post[c] is the counter value assigned when c is exited, so c's
	// spanning subtree owns a contiguous range of positions ending at
	// post[c]. order lists components in finish order, so order[q] is
	// the component at position q.
	const unvisited = -1
	post := grow(sc.post, p)
	for i := range post {
		post[i] = unvisited
	}
	var counter int32
	stack := sc.stack[:0]
	order := grow(sc.order, p)[:0] // DFS finish order = reverse topo prefix order
	for root := int32(0); root < int32(p); root++ {
		if post[root] != unvisited {
			continue
		}
		post[root] = -2 // on stack
		stack = append(stack[:0], dfsFrame{c: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.i < len(csuccs[f.c]) {
				c := csuccs[f.c][f.i]
				f.i++
				if post[c] == unvisited {
					post[c] = -2
					stack = append(stack, dfsFrame{c: c})
					advanced = true
					break
				}
			}
			if advanced {
				continue
			}
			post[f.c] = counter
			counter++
			order = append(order, f.c)
			stack = stack[:len(stack)-1]
		}
	}
	sc.post, sc.order, sc.stack = post, order, stack

	// pos + position→nodes: position q holds the members of component
	// order[q].
	for q, c := range order {
		for _, u := range cd.members[cd.start[c]:cd.start[c+1]] {
			l.pos[u] = int32(q)
			l.byPosNodes = append(l.byPosNodes, u)
		}
		l.byPosStart = append(l.byPosStart, int32(len(l.byPosNodes)))
	}

	// Reverse-topological label merge over the condensation. The DFS
	// finish order is a reverse topological order of the condensation
	// (every successor finishes before its predecessors), so iterating
	// it forward visits all successors of c before c. Each row is c's
	// own position plus the union of its successors' rows — which
	// include the tree children's, so the whole subtree below c. The
	// covers are set word-wise into a position bitmap, as MarkRow does,
	// and read back as maximal runs: no sort, and only the touched word
	// span is scanned and cleared. A successor whose position is
	// already set is skipped: some successor unioned before it reaches
	// it, so its row is already contained. Past the interval budget the
	// build switches to bitmap rows over the same order.
	mark := grow(sc.mark, MarkWords(p))
	clear(mark)
	ivs, off := sc.ivs[:0], grow(sc.off, p+1)
	if cap(ivs) < 4*p {
		ivs = make([]Interval, 0, 4*p) // a few intervals per row to start
	}
	off[0] = 0
	for q, c := range order {
		lw, hw := int32(q)>>6, int32(q)>>6
		for _, s := range csuccs[c] {
			ps := post[s]
			if mark[ps>>6]&(1<<(uint(ps)&63)) != 0 {
				continue
			}
			row := ivs[off[ps]:off[ps+1]]
			for _, iv := range row {
				markRun(mark, iv.Lo, iv.Hi)
			}
			lw, hw = min(lw, row[0].Lo>>6), max(hw, row[len(row)-1].Hi>>6)
		}
		mark[q>>6] |= 1 << (uint(q) & 63)
		ivs = appendRuns(reserve(ivs, int(hw-lw+1)*32), mark[lw:hw+1], lw<<6)
		clear(mark[lw : hw+1])
		off[q+1] = int32(len(ivs))
		if len(ivs) > budget {
			sc.mark, sc.ivs, sc.off = mark, ivs, off
			l.buildBitRows(order, csuccs, post, cd.sccOf)
			return l
		}
	}
	sc.mark, sc.ivs, sc.off = mark, ivs, off
	// Copy the rows into the index's one backing array. Rows are
	// shared across SCC members (and counted once: the shared slice is
	// resident once); each is capacity-limited, so no row can grow into
	// its neighbour. Patch only ever runs on acyclic graphs, where
	// every component is a singleton, so its per-row accounting agrees
	// with this count.
	arena := make([]Interval, len(ivs))
	copy(arena, ivs)
	l.rows = make([][]Interval, n)
	for u, c := range cd.sccOf {
		q := post[c]
		l.rows[u] = arena[off[q]:off[q+1]:off[q+1]]
	}
	l.intervals = len(arena)
	l.shared = true
	return l
}

// condenseAdj derives the condensation adjacency of a cyclic graph into
// the scratch: for each component, the distinct components its members'
// adj lists reach, in first-seen order (members ascending, each
// member's list in order), self excluded. The rows are slices of one
// array.
func (sc *labelScratch) condenseAdj(cd *condensation, adj [][]int32) [][]int32 {
	p := len(cd.start) - 1
	stamp := grow(sc.stamp, p)
	end := grow(sc.cend, p)
	cadj := sc.cadj[:0]
	for i := range stamp {
		stamp[i] = -1
	}
	for ci := int32(0); ci < int32(p); ci++ {
		for _, u := range cd.members[cd.start[ci]:cd.start[ci+1]] {
			for _, v := range adj[u] {
				cv := cd.sccOf[v]
				if cv == ci || stamp[cv] == ci {
					continue
				}
				stamp[cv] = ci
				cadj = append(cadj, cv)
			}
		}
		end[ci] = int32(len(cadj))
	}
	csuccs := grow(sc.csuccs, p)
	lo := int32(0)
	for ci, hi := range end {
		csuccs[ci] = cadj[lo:hi:hi]
		lo = hi
	}
	sc.stamp, sc.cend, sc.cadj, sc.csuccs = stamp, end, cadj, csuccs
	return csuccs
}

// buildBitRows fills l with bitmap rows of MarkWords(n) words, merged
// over the condensation in the same reverse topological order as the
// interval rows, each component's row shared by its members. The rows
// are consecutive slices of one backing array, in position order.
func (l *Labels) buildBitRows(order []int32, csuccs [][]int32, post, sccOf []int32) {
	w := MarkWords(len(sccOf))
	slab := make([]uint64, len(order)*w)
	row := func(q int32) []uint64 { return slab[int(q)*w : int(q+1)*w : int(q+1)*w] }
	for q, c := range order {
		dst := row(int32(q))
		for _, s := range csuccs[c] {
			if dst[post[s]>>6]&(1<<(uint(post[s])&63)) != 0 {
				continue // contained in a row unioned before
			}
			for i, x := range row(post[s]) {
				dst[i] |= x
			}
		}
		dst[q>>6] |= 1 << (uint(q) & 63)
	}
	l.words = len(slab)
	l.bitRows = make([][]uint64, len(sccOf))
	for u, c := range sccOf {
		l.bitRows[u] = row(post[c])
	}
	l.shared = true
}

// markRun sets positions lo..hi (inclusive) in mark, word-wise.
func markRun(mark []uint64, lo, hi int32) {
	lw, hw := int(lo)>>6, int(hi)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi) & 63))
	if lw == hw {
		mark[lw] |= loMask & hiMask
		return
	}
	mark[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		mark[w] = ^uint64(0)
	}
	mark[hw] |= hiMask
}

// appendRuns appends the maximal runs of set bits in words — whose bit
// 0 is position base — to dst as intervals, in ascending order: the
// canonical (sorted, disjoint, non-adjacent) cover of the set.
func appendRuns(dst []Interval, words []uint64, base int32) []Interval {
	var start int32
	inRun := false
	for i, x := range words {
		wbase := base + int32(i)<<6
		for off := 0; off < 64; {
			if !inRun {
				y := x >> uint(off)
				if y == 0 {
					break
				}
				off += bits.TrailingZeros64(y)
				start, inRun = wbase+int32(off), true
			}
			// Set bits from off upward; the shifted-in top bits read as
			// ones in the complement, so ones ≤ 64-off.
			ones := bits.TrailingZeros64(^(x >> uint(off)))
			if off+ones == 64 {
				break // the run continues into the next word
			}
			off += ones
			dst = append(dst, Interval{Lo: start, Hi: wbase + int32(off) - 1})
			inRun = false
		}
	}
	if inRun {
		dst = append(dst, Interval{Lo: start, Hi: base + int32(len(words))<<6 - 1})
	}
	return dst
}

// unionCovers writes the canonical cover of the union of the canonical
// covers a and b into out — in one linear merge pass — and returns its
// length. With a nil out it only counts, so callers can allocate the
// result at exactly its length.
func unionCovers(out, a, b []Interval) int {
	n := 0
	var cur Interval
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var iv Interval
		if j == len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			iv, i = a[i], i+1
		} else {
			iv, j = b[j], j+1
		}
		if n > 0 && iv.Lo <= cur.Hi+1 {
			cur.Hi = max(cur.Hi, iv.Hi)
			continue
		}
		if n > 0 && out != nil {
			out[n-1] = cur
		}
		cur = iv
		n++
	}
	if n > 0 && out != nil {
		out[n-1] = cur
	}
	return n
}

// Reaches reports whether u reaches v, reflexively, exactly as
// Closure.Reaches does. O(log k) in u's interval count k, with a linear
// scan below a handful of intervals.
func (l *Labels) Reaches(u, v int) bool {
	p := l.pos[v]
	if l.bitRows != nil {
		row := l.bitRows[u]
		w := int(p >> 6)
		return w < len(row) && row[w]&(1<<(uint(p)&63)) != 0
	}
	row := l.rows[u]
	if len(row) <= 8 {
		for _, iv := range row {
			if p < iv.Lo {
				return false
			}
			if p <= iv.Hi {
				return true
			}
		}
		return false
	}
	// First interval with Lo > p; the candidate is its predecessor.
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].Lo <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && row[lo-1].Hi >= p
}

// forEachReachable calls fn for every node u reaches (reflexively), in
// postorder-position order, not node order: it walks u's intervals (or
// set bits) through the position→node table. AddEdge enumerates
// ancestors this way over the reverse index. fn must not patch row u.
func (l *Labels) forEachReachable(u int, fn func(v int)) {
	if l.bitRows != nil {
		for i, x := range l.bitRows[u] {
			for ; x != 0; x &= x - 1 {
				p := i<<6 + bits.TrailingZeros64(x)
				for _, v := range l.byPosNodes[l.byPosStart[p]:l.byPosStart[p+1]] {
					fn(int(v))
				}
			}
		}
		return
	}
	for _, iv := range l.rows[u] {
		for _, v := range l.byPosNodes[l.byPosStart[iv.Lo]:l.byPosStart[iv.Hi+1]] {
			fn(int(v))
		}
	}
}

// Patch merges v's label row into w's, maintaining the exact-cover
// invariant after the closure gains reach(w) ⊇ reach(v) (the Italiano
// edge-insertion step): a linear merge of the two sorted covers, or a
// word-wise OR of bitmap rows. The merged row is freshly allocated at
// exactly its length and assigned — rows shared with forked snapshots
// are never written, and no spare capacity escapes MemoryBytes. Patch
// is only meaningful on indexes built over acyclic graphs (the
// IncrementalClosure's case); SCC-shared rows are never patched.
//
// The first Patch on a freshly built index first moves every row out of
// the build's backing array into an exact allocation of its own
// (copyOut), so that no patched index pins that array: once the forks
// taken before it are dropped, the array is freed, and from then on a
// patched-away row is freed on its own.
func (l *Labels) Patch(w, v int) {
	if l.shared {
		l.copyOut()
	}
	if l.bitRows != nil {
		old, src := l.bitRows[w], l.bitRows[v]
		row := make([]uint64, max(len(old), len(src)))
		copy(row, old)
		for i, x := range src {
			row[i] |= x
		}
		l.bitRows[w] = row
		l.words += len(row) - len(old)
		return
	}
	old, src := l.rows[w], l.rows[v]
	row := make([]Interval, unionCovers(nil, old, src))
	unionCovers(row, old, src)
	l.rows[w] = row
	l.intervals += len(row) - len(old)
}

// copyOut gives every row an exact allocation of its own, one per
// postorder position, so the members of a component keep sharing their
// row. Forks taken before it keep reading the build array.
func (l *Labels) copyOut() {
	for q := 0; q+1 < len(l.byPosStart); q++ {
		nodes := l.byPosNodes[l.byPosStart[q]:l.byPosStart[q+1]]
		if l.bitRows != nil {
			src := l.bitRows[nodes[0]]
			row := append(make([]uint64, 0, len(src)), src...)
			for _, u := range nodes {
				l.bitRows[u] = row
			}
			continue
		}
		src := l.rows[nodes[0]]
		row := append(make([]Interval, 0, len(src)), src...)
		for _, u := range nodes {
			l.rows[u] = row
		}
	}
	l.shared = false
}

// Grow appends k new isolated nodes, each its own postorder position
// with a singleton self-interval (or self-bit) — exactly what a
// from-scratch build of the grown graph produces for isolated nodes
// appended last. All existing rows and tables are untouched
// (append-only; older bitmap rows stay shorter, their missing words
// zero), so forked snapshots remain valid.
func (l *Labels) Grow(k int) {
	for i := 0; i < k; i++ {
		u := int32(len(l.pos))
		q := int32(len(l.byPosStart) - 1)
		l.pos = append(l.pos, q)
		l.byPosNodes = append(l.byPosNodes, u)
		l.byPosStart = append(l.byPosStart, int32(len(l.byPosNodes)))
		if l.bitRows != nil {
			row := make([]uint64, q>>6+1)
			row[q>>6] = 1 << (uint(q) & 63)
			l.bitRows = append(l.bitRows, row)
			l.words += len(row)
			continue
		}
		l.rows = append(l.rows, []Interval{{Lo: q, Hi: q}})
		l.intervals++
	}
}

// Fork returns a snapshot sharing every append-only table with l but
// owning its own copy of the row table. Later Patch calls install fresh
// rows into l only; later Grow calls append past the fork's length.
// The snapshot is safe for concurrent readers while the original keeps
// mutating under its owner's lock.
func (l *Labels) Fork() *Labels {
	return &Labels{
		pos:        l.pos,
		byPosStart: l.byPosStart,
		byPosNodes: l.byPosNodes,
		rows:       slices.Clone(l.rows),
		bitRows:    slices.Clone(l.bitRows),
		shared:     l.shared,
		intervals:  l.intervals,
		words:      l.words,
	}
}

// MarkRow sets, in mark — a position-indexed bit array with at least
// MarkWords(l.N()) words, zeroed by the caller — every postorder
// position of u's reachable set. Together with Marked this turns a
// batch of membership tests against one source node into O(1) lookups:
// interval runs are set word-wise, so marking costs O(intervals +
// span/64) regardless of how many tests follow (a bitmap row is OR-ed
// in, O(n/64)).
func (l *Labels) MarkRow(mark []uint64, u int) {
	if l.bitRows != nil {
		for i, x := range l.bitRows[u] {
			mark[i] |= x
		}
		return
	}
	for _, iv := range l.rows[u] {
		markRun(mark, iv.Lo, iv.Hi)
	}
}

// Marked reports whether v's position was set in mark by a MarkRow on
// this same index: Marked(mark, v) after MarkRow(mark, u) is exactly
// Reaches(u, v).
func (l *Labels) Marked(mark []uint64, v int) bool {
	p := l.pos[v]
	return mark[p>>6]&(1<<(uint(p)&63)) != 0
}

// PosNodes returns the position→node table that forEachReachable
// walks, in CSR layout: the nodes at postorder position p — the bit
// MarkRow sets for them — are nodes[start[p]:start[p+1]]. An acyclic
// graph has one node per position; the members of a strongly connected
// component share one. Both slices are shared with the index: do not
// modify them.
func (l *Labels) PosNodes() (start, nodes []int32) { return l.byPosStart, l.byPosNodes }

// MarkWords returns the scratch length MarkRow needs for n nodes.
func MarkWords(n int) int { return (n + 63) / 64 }

// N returns the number of labeled nodes.
func (l *Labels) N() int { return len(l.pos) }

// Intervals returns the total interval count across all rows, a row
// shared by the members of one SCC counted once per component; 0 for
// an index with bitmap rows.
func (l *Labels) Intervals() int { return l.intervals }

// MemoryBytes estimates the resident size of the index. An interval
// and a bitmap word are both 8 bytes.
func (l *Labels) MemoryBytes() int64 {
	b := int64(len(l.pos))*4 + int64(len(l.byPosStart))*4 + int64(len(l.byPosNodes))*4
	b += int64(len(l.rows)+len(l.bitRows)) * 24 // slice headers
	b += int64(l.intervals+l.words) * 8
	return b
}
