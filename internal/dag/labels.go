package dag

import (
	"math/bits"
	"slices"
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
// After the build, rows are only ever patched: Patch merges two sorted
// covers in one linear pass into a fresh row of exactly the merged
// length, and the owning IncrementalClosure rebuilds the pair only when
// patching has doubled its size (incremental.go). Every row is its own
// allocation, so a patched-away row is freed on its own rather than
// pinning a shared build arena.
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
	cd := &condensation{
		sccOf:   make([]int32, n),
		start:   make([]int32, 0, n+1),
		members: make([]int32, 0, n),
	}
	if g.IsAcyclic() {
		for u := int32(0); u < int32(n); u++ {
			cd.sccOf[u] = u
			cd.start = append(cd.start, u)
			cd.members = append(cd.members, u)
		}
	} else {
		for ci, comp := range g.SCC() {
			cd.start = append(cd.start, int32(len(cd.members)))
			for _, u := range comp {
				cd.sccOf[u] = int32(ci)
				cd.members = append(cd.members, int32(u))
			}
		}
	}
	cd.start = append(cd.start, int32(n))
	return cd
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

	// Condensation adjacency. Every component of an acyclic graph is
	// its own node, and a Graph has neither parallel edges nor
	// self-loops, so adj is already the condensation's adjacency;
	// otherwise it is derived, deduplicated with a stamp array.
	csuccs := adj
	if p < n {
		csuccs = make([][]int32, p)
		stamp := make([]int32, p)
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
					csuccs[ci] = append(csuccs[ci], cv)
				}
			}
		}
	}

	// Spanning forest + postorder numbering over the condensation:
	// post[c] is the counter value assigned when c is exited, so c's
	// spanning subtree owns a contiguous range of positions ending at
	// post[c].
	const unvisited = -1
	post := make([]int32, p)
	for i := range post {
		post[i] = unvisited
	}
	var counter int32
	type dfsFrame struct {
		c int32
		i int
	}
	var stack []dfsFrame
	order := make([]int32, 0, p) // DFS finish order = reverse topo prefix order
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

	// pos + position→nodes (positions 0..p-1; position of component c is
	// post[c], so group component members by post).
	compAtPos := make([]int32, p)
	for c := int32(0); c < int32(p); c++ {
		compAtPos[post[c]] = c
	}
	for q := 0; q < p; q++ {
		c := compAtPos[q]
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
	crows := make([][]Interval, p)
	mark := make([]uint64, MarkWords(p))
	var scratch []Interval
	for _, c := range order {
		lw, hw := post[c]>>6, post[c]>>6
		for _, s := range csuccs[c] {
			if mark[post[s]>>6]&(1<<(uint(post[s])&63)) != 0 {
				continue
			}
			row := crows[s]
			for _, iv := range row {
				markRun(mark, iv.Lo, iv.Hi)
			}
			lw, hw = min(lw, row[0].Lo>>6), max(hw, row[len(row)-1].Hi>>6)
		}
		mark[post[c]>>6] |= 1 << (uint(post[c]) & 63)
		scratch = appendRuns(scratch[:0], mark[lw:hw+1], lw<<6)
		clear(mark[lw : hw+1])
		crows[c] = append(make([]Interval, 0, len(scratch)), scratch...)
		l.intervals += len(scratch)
		if l.intervals > budget {
			l.intervals = 0
			l.buildBitRows(order, csuccs, post, cd.sccOf)
			return l
		}
	}
	// Rows are shared across SCC members (and counted once: the shared
	// slice is resident once). Patch only ever runs on acyclic graphs,
	// where every component is a singleton, so its per-row accounting
	// agrees with this count.
	l.rows = make([][]Interval, n)
	for u, c := range cd.sccOf {
		l.rows[u] = crows[c]
	}
	return l
}

// buildBitRows fills l with bitmap rows of MarkWords(n) words, merged
// over the condensation in the same reverse topological order as the
// interval rows, each component's row shared by its members.
func (l *Labels) buildBitRows(order []int32, csuccs [][]int32, post, sccOf []int32) {
	w := MarkWords(len(sccOf))
	crows := make([][]uint64, len(order))
	for _, c := range order {
		row := make([]uint64, w)
		for _, s := range csuccs[c] {
			if row[post[s]>>6]&(1<<(uint(post[s])&63)) != 0 {
				continue // contained in a row unioned before
			}
			for i, x := range crows[s] {
				row[i] |= x
			}
		}
		row[post[c]>>6] |= 1 << (uint(post[c]) & 63)
		crows[c] = row
	}
	l.words = len(order) * w
	l.bitRows = make([][]uint64, len(sccOf))
	for u, c := range sccOf {
		l.bitRows[u] = crows[c]
	}
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
func (l *Labels) Patch(w, v int) {
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
