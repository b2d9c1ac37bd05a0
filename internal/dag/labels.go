package dag

import (
	"math/bits"
	"slices"
	"sync"
)

// This file implements the reachability label index: each node carries
// one row holding exactly the postorder positions of its reachable set,
// in whichever of two containers is smaller — the set's canonical
// interval runs (Agrawal–Borgida–Jagadish tree-cover labels) or a
// bitmap of the word span the set occupies (Roaring's run-versus-bitmap
// container choice). Membership — "does u reach v?" — is a binary
// search over u's runs or one bit test, and the index is total: no row
// is more than one word larger than a closure row.
//
// Construction numbers a spanning forest of the condensation in
// postorder (so every subtree owns a contiguous interval), then unions
// successor rows in reverse topological order through a word bitmap,
// which one function (appendRow) turns into a row — no sorting
// anywhere. The reverse (ancestor) index is built from the predecessor
// lists over the same condensation (BuildLabelPair). Cyclic inputs
// (view quotient graphs of unsound views) are handled by labeling the
// condensation: all members of a strongly connected component share
// one row and one postorder position, which reproduces the reflexive
// closure semantics of Reachability exactly.
//
// A build makes a fixed number of allocations, however many rows it
// produces: it appends every row to pooled scratch and copies them once
// into one exact-length backing array, of which each row is a
// capacity-limited slice. After the build, rows are only ever patched:
// Patch marks two rows and emits their union through appendRow into a
// fresh row of exactly its length, and the owning IncrementalClosure
// rebuilds the pair only when patching has doubled its size
// (incremental.go). A patched index must not pin its build array
// through the rows it patched away, so the first Patch moves every row
// into an exact allocation of its own; from then on a patched-away row
// is freed on its own. Forks taken before that keep reading the
// immutable build array, and an index that is never patched — a view's
// quotient labels — keeps it for life.

// A row is a non-empty position set in one of two containers. A run
// row is the set's canonical cover — sorted, disjoint, non-adjacent
// runs — one word per run, lo<<32 | hi. A bitmap row is a header word,
// bitmapRow | w, and then the set's bitmap from word w to the word of
// its last position. Positions are below 2³¹, so no run word has the
// top bit set, and a row's first word names its container.
const bitmapRow = 1 << 63

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
	// rows[u] is u's row (see bitmapRow). Members of one SCC share a row
	// at build time; Patch always installs a freshly allocated row,
	// never mutates one in place, so forked snapshots stay immutable.
	rows [][]uint64
	// shared reports that the built rows are still capacity-limited
	// slices of the build's one backing array; the first Patch moves
	// them out (copyOut).
	shared bool
	// words is the total row length, a row shared by the members of one
	// SCC counted once.
	words int
}

// BuildLabels computes the label index of g, cyclic or not.
func BuildLabels(g *Graph) *Labels { return condense(g).labels(g.succs) }

// BuildLabelPair computes the forward label index of g and its reverse
// (ancestor-direction) index in one pass: the reverse index is built
// from g's predecessor lists over the same condensation, so it equals
// BuildLabels of the reversed graph without materializing that graph.
func BuildLabelPair(g *Graph) (fwd, rev *Labels) {
	c := condense(g)
	return c.labels(g.succs), c.labels(g.preds)
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
// pooled across builds. Rows are appended to buf one component after
// another in postorder — the component at position q owns
// buf[off[q]:off[q+1]] — and copied out once, into the index's one
// backing array, when the build completes.
type labelScratch struct {
	post  []int32
	order []int32
	stack []dfsFrame
	mark  []uint64
	buf   []uint64
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

// reserve returns s with room for k more words, at least doubling its
// capacity when it must grow: append's gentler growth on large slices
// would reallocate the scratch a dozen times in one big build. A nil s
// gets exactly k.
func reserve(s []uint64, k int) []uint64 {
	if len(s)+k <= cap(s) {
		return s
	}
	grown := make([]uint64, len(s), max(2*cap(s), len(s)+k))
	copy(grown, s)
	return grown
}

// labels builds the label index over one direction of the graph: adj is
// its successor lists (forward index) or predecessor lists (reverse
// index).
func (cd *condensation) labels(adj [][]int32) *Labels {
	n, p := len(cd.sccOf), len(cd.start)-1
	l := &Labels{
		pos:        make([]int32, n),
		byPosStart: make([]int32, 1, n+1),
		byPosNodes: make([]int32, 0, n),
		rows:       make([][]uint64, n),
	}
	if n == 0 {
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

	// Reverse-topological row merge over the condensation. The DFS
	// finish order is a reverse topological order of the condensation
	// (every successor finishes before its predecessors), so iterating
	// it forward visits all successors of c before c. Each row is c's
	// own position plus the union of its successors' rows — which
	// include the tree children's, so the whole subtree below c. The
	// rows are marked into a position bitmap and emitted by appendRow;
	// only the touched word span is scanned and cleared. A successor
	// whose position is already set is skipped: some successor unioned
	// before it reaches it, so its row is already contained.
	mark := grow(sc.mark, MarkWords(p))
	clear(mark)
	buf, off := sc.buf[:0], grow(sc.off, p+1)
	if cap(buf) < 4*p {
		buf = make([]uint64, 0, 4*p) // a few words per row to start
	}
	off[0] = 0
	for q, c := range order {
		lw, hw := q>>6, q>>6
		for _, s := range csuccs[c] {
			ps := post[s]
			if mark[ps>>6]&(1<<(uint(ps)&63)) != 0 {
				continue
			}
			slw, shw := markRow(mark, buf[off[ps]:off[ps+1]])
			lw, hw = min(lw, slw), max(hw, shw)
		}
		mark[q>>6] |= 1 << (uint(q) & 63)
		buf = appendRow(buf, mark, lw, hw)
		clear(mark[lw : hw+1])
		off[q+1] = int32(len(buf))
	}
	sc.mark, sc.buf, sc.off = mark, buf, off
	// Copy the rows into the index's one backing array. Rows are
	// shared across SCC members (and counted once: the shared slice is
	// resident once); each is capacity-limited, so no row can grow into
	// its neighbour. Patch only ever runs on acyclic graphs, where
	// every component is a singleton, so its per-row accounting agrees
	// with this count.
	arena := make([]uint64, len(buf))
	copy(arena, buf)
	for u, c := range cd.sccOf {
		q := post[c]
		l.rows[u] = arena[off[q]:off[q+1]:off[q+1]]
	}
	l.words = len(arena)
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

// appendRow appends to dst the row of the positions set in mark's words
// lw..hw, in the smaller container — the canonical runs, one word each,
// or a header word and the span's bitmap; runs on a tie. Room is made
// as reserve makes it, so a nil dst gets a row of exactly its length.
// It is the one place a row's container is chosen: builds and Patch
// both emit their rows through it.
func appendRow(dst, mark []uint64, lw, hw int) []uint64 {
	words := mark[lw : hw+1]
	if runs := countRuns(words); runs <= len(words)+1 {
		return appendRuns(reserve(dst, runs), words, int32(lw)<<6)
	}
	dst = append(reserve(dst, len(words)+1), bitmapRow|uint64(lw))
	return append(dst, words...)
}

// countRuns returns the number of maximal runs of set bits in words.
func countRuns(words []uint64) int {
	runs, carry := 0, uint64(0)
	for _, x := range words {
		runs += bits.OnesCount64(x &^ (x<<1 | carry)) // bits that start a run
		carry = x >> 63
	}
	return runs
}

// appendRuns appends the maximal runs of set bits in words — whose bit
// 0 is position base — to dst as run words, in ascending order: the
// canonical (sorted, disjoint, non-adjacent) cover of the set.
func appendRuns(dst, words []uint64, base int32) []uint64 {
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
			dst = append(dst, run(start, wbase+int32(off)-1))
			inRun = false
		}
	}
	if inRun {
		dst = append(dst, run(start, base+int32(len(words))<<6-1))
	}
	return dst
}

// run encodes the run of positions lo..hi (inclusive) as a row word.
func run(lo, hi int32) uint64 { return uint64(lo)<<32 | uint64(hi) }

// markRow sets row's positions in mark and returns the span of words
// they lie in.
func markRow(mark, row []uint64) (lw, hw int) {
	if h := row[0]; h&bitmapRow != 0 {
		lw = int(h &^ bitmapRow)
		for i, x := range row[1:] {
			mark[lw+i] |= x
		}
		return lw, lw + len(row) - 2
	}
	for _, r := range row {
		markRun(mark, int(r>>32), int(uint32(r)))
	}
	return int(row[0]>>32) >> 6, int(uint32(row[len(row)-1])) >> 6
}

// markRun sets positions lo..hi (inclusive) in mark, word-wise.
func markRun(mark []uint64, lo, hi int) {
	lw, hw := lo>>6, hi>>6
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

// Reaches reports whether u reaches v, reflexively, exactly as
// Closure.Reaches does: one bit test in a bitmap row, O(log k) in a row
// of k runs, with a linear scan below a handful of runs.
func (l *Labels) Reaches(u, v int) bool {
	p := l.pos[v]
	row := l.rows[u]
	if h := row[0]; h&bitmapRow != 0 {
		i := int(p>>6) - int(h&^bitmapRow) + 1
		return i > 0 && i < len(row) && row[i]&(1<<(uint(p)&63)) != 0
	}
	// The candidate is the last run starting at or before p; the run
	// words starting there are those below (p+1)<<32.
	i := 0
	if len(row) <= 8 {
		for i < len(row) && int32(row[i]>>32) <= p {
			i++
		}
	} else {
		i, _ = slices.BinarySearch(row, uint64(p+1)<<32)
	}
	return i > 0 && int32(uint32(row[i-1])) >= p
}

// forEachReachable calls fn for every node u reaches (reflexively), in
// postorder-position order, not node order: it walks u's runs (or set
// bits) through the position→node table. AddEdge enumerates ancestors
// this way over the reverse index. fn must not patch row u.
func (l *Labels) forEachReachable(u int, fn func(v int)) {
	row := l.rows[u]
	if h := row[0]; h&bitmapRow != 0 {
		base := int(h&^bitmapRow) << 6
		for i, x := range row[1:] {
			for ; x != 0; x &= x - 1 {
				p := base + i<<6 + bits.TrailingZeros64(x)
				for _, v := range l.byPosNodes[l.byPosStart[p]:l.byPosStart[p+1]] {
					fn(int(v))
				}
			}
		}
		return
	}
	for _, r := range row {
		for _, v := range l.byPosNodes[l.byPosStart[r>>32]:l.byPosStart[uint32(r)+1]] {
			fn(int(v))
		}
	}
}

// Patch merges v's row into w's, maintaining the exact-set invariant
// after the closure gains reach(w) ⊇ reach(v) (the Italiano
// edge-insertion step): both rows are marked into a pooled position
// mark, and appendRow emits their union, in whichever container is now
// smaller, into a fresh row of exactly its length — rows shared with
// forked snapshots are never written, and no spare capacity escapes
// MemoryBytes. Patch is only meaningful on indexes built over acyclic
// graphs (the IncrementalClosure's case); SCC-shared rows are never
// patched.
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
	mp := ScratchMark(l.N())
	lw, hw := markRow(*mp, l.rows[w])
	vlw, vhw := markRow(*mp, l.rows[v])
	lw, hw = min(lw, vlw), max(hw, vhw)
	row := appendRow(nil, *mp, lw, hw)
	ReleaseMark(mp)
	l.words += len(row) - len(l.rows[w])
	l.rows[w] = row
}

// copyOut gives every row an exact allocation of its own, one per
// postorder position, so the members of a component keep sharing their
// row. Forks taken before it keep reading the build array.
func (l *Labels) copyOut() {
	for q := 0; q+1 < len(l.byPosStart); q++ {
		nodes := l.byPosNodes[l.byPosStart[q]:l.byPosStart[q+1]]
		row := slices.Clone(l.rows[nodes[0]])
		for _, u := range nodes {
			l.rows[u] = row
		}
	}
	l.shared = false
}

// Grow appends k new isolated nodes, each its own postorder position
// with a one-run row — exactly what a from-scratch build of the grown
// graph produces for isolated nodes appended last. All existing rows
// and tables are untouched (append-only; no existing row covers the new
// positions), so forked snapshots remain valid.
func (l *Labels) Grow(k int) {
	for i := 0; i < k; i++ {
		u := int32(len(l.pos))
		q := int32(len(l.byPosStart) - 1)
		l.pos = append(l.pos, q)
		l.byPosNodes = append(l.byPosNodes, u)
		l.byPosStart = append(l.byPosStart, int32(len(l.byPosNodes)))
		l.rows = append(l.rows, []uint64{run(q, q)})
		l.words++
	}
}

// Fork returns a snapshot sharing every append-only table with l but
// owning its own copy of the row table. Later Patch calls install fresh
// rows into l only; later Grow calls append past the fork's length.
// The snapshot is safe for concurrent readers while the original keeps
// mutating under its owner's lock.
func (l *Labels) Fork() *Labels {
	f := *l
	f.rows = slices.Clone(l.rows)
	return &f
}

// MarkRow sets, in mark — a position-indexed bit array with at least
// MarkWords(l.N()) words, zeroed by the caller — every postorder
// position of u's reachable set. Together with Marked this turns a
// batch of membership tests against one source node into O(1) lookups:
// runs are set word-wise and a bitmap row is OR-ed in, so marking costs
// O(row length + span/64) regardless of how many tests follow.
func (l *Labels) MarkRow(mark []uint64, u int) { markRow(mark, l.rows[u]) }

// Marked reports whether v's position was set in mark by a MarkRow on
// this same index: Marked(mark, v) after MarkRow(mark, u) is exactly
// Reaches(u, v).
func (l *Labels) Marked(mark []uint64, v int) bool {
	p := l.pos[v]
	return mark[p>>6]&(1<<(uint(p)&63)) != 0
}

// markPool holds the pooled position marks (ScratchMark).
var markPool = sync.Pool{New: func() any { return new([]uint64) }}

// ScratchMark returns a zeroed pooled mark of MarkWords(n) words, for
// MarkRow over an index of n nodes; ReleaseMark hands it back. The run
// store's serve path, LiveWorkflow.Lineage and Patch take their marks
// here, so a warm caller allocates none.
func ScratchMark(n int) *[]uint64 {
	p := markPool.Get().(*[]uint64) //lint:allow poolret ownership transfers to the caller; ReleaseMark is the Put
	if w := MarkWords(n); cap(*p) < w {
		*p = make([]uint64, w)
	} else {
		*p = (*p)[:w]
		clear(*p)
	}
	return p
}

// ReleaseMark returns a mark taken with ScratchMark to the pool.
func ReleaseMark(p *[]uint64) { markPool.Put(p) }

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

// MemoryBytes estimates the resident size of the index: its tables, one
// slice header per row and 8 bytes per row word.
func (l *Labels) MemoryBytes() int64 {
	b := int64(len(l.pos))*4 + int64(len(l.byPosStart))*4 + int64(len(l.byPosNodes))*4
	return b + int64(len(l.rows))*24 + int64(l.words)*8
}
