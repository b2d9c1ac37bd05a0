package dag

import (
	"fmt"

	"wolves/internal/bitset"
)

// IncrementalClosure maintains the reflexive-transitive closure of a
// growing DAG under edge and node additions, without ever rebuilding it
// from scratch on the success path. It is the substrate of the engine's
// live workflow registry: a stateless pipeline pays O(V·E/w) closure
// construction per request, while an IncrementalClosure pays only for
// the pairs that actually become reachable.
//
// It keeps one closure matrix, the forward one the soundness oracle
// reads, plus the forward and reverse reachability label indexes
// (labels.go). Edge insertion uses Italiano-style row OR-propagation:
// inserting u→v unions v's descendant row into the row of every
// ancestor w of u that does not already reach v. The ancestor set is
// read from the reverse label row of u, which the same pass keeps
// exact, so no transposed matrix is needed. The update cost is
// O(|anc(u)| · V/64) word operations plus one label patch per changed
// row — for a single edge on a large workflow this is orders of
// magnitude below a rebuild.
//
// The label pair always exists: it is built at construction and at
// rollback, and patched by every committed edge, so an edge costs label
// work only for the rows whose reach changed. The pair is rebuilt in
// place only when patching has doubled its size since the last build;
// there is no periodic rebuild, so local edit streams never pay O(n+m)
// label construction.
//
// The IncrementalClosure owns its graph: after construction, callers
// must route every mutation through AddEdge/Grow (mutating the graph
// directly would silently desynchronize the closure). The structure is
// not safe for concurrent use; the registry serializes mutations behind
// a write lock and lets readers share the closure rows behind a read
// lock.
type IncrementalClosure struct {
	g   *Graph
	fwd *Closure // Row(u) = reflexive descendants of u

	// labels/revLabels are the reachability label indexes maintained
	// alongside the closure: labels answers "u reaches v", revLabels is
	// built over the predecessor lists so its rows enumerate ancestors.
	// Edge insertion patches both in the same Italiano pass that ORs
	// closure rows, and Grow extends them. Never nil; rebuilt in place
	// only when patching has doubled the pair's size since its build
	// (rebuildOverGrownLabels).
	labels        *Labels
	revLabels     *Labels
	labelBuilt    int   // pair size (row words) at the last build
	labelBuilds   int64 // label-index (pair) builds: construction, rollback, size rule
	labelRebuilds int64 // rebuilds forced by the size rule
	labelPatches  int64 // lifetime Patch calls, both directions
}

// NewIncrementalClosure computes the initial closure of g (which must be
// acyclic) and its label pair, and takes ownership of g.
func NewIncrementalClosure(g *Graph) (*IncrementalClosure, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	ic := &IncrementalClosure{g: g}
	ic.rebuild()
	return ic, nil
}

// rebuild recomputes the closure and the label pair from the graph
// (construction and the rare rollback path).
func (ic *IncrementalClosure) rebuild() {
	ic.fwd = ic.g.Reachability()
	ic.rebuildLabels()
}

// rebuildLabels builds the forward/reverse label pair.
func (ic *IncrementalClosure) rebuildLabels() {
	ic.labels, ic.revLabels = BuildLabelPair(ic.g)
	ic.labelBuilt = ic.labelSize()
	ic.labelBuilds++
}

// labelSize is the pair's current size in row words, both directions.
func (ic *IncrementalClosure) labelSize() int { return ic.labels.words + ic.revLabels.words }

// rebuildOverGrownLabels rebuilds the patched pair in place once it has
// doubled in size since its last build. Patches can fragment a row's
// runs, but not much under local edits, and never past the bitmap of
// its span, which appendRow then picks instead: a history of local
// edges on a layered DAG stays far below 2× and never rebuilds
// (checkPatchHistoryKeepsLabels).
func (ic *IncrementalClosure) rebuildOverGrownLabels() {
	if ic.labelSize() <= 2*ic.labelBuilt {
		return
	}
	ic.rebuildLabels()
	ic.labelRebuilds++
}

// Labels returns the current forward label index; never nil. The
// returned index is mutated by AddEdge/Grow and replaced by the size
// rule and Rollback; concurrent readers must hold a Fork instead.
func (ic *IncrementalClosure) Labels() *Labels { return ic.labels }

// RevLabels returns the reverse (ancestor-direction) label index. Same
// sharing rules as Labels.
func (ic *IncrementalClosure) RevLabels() *Labels { return ic.revLabels }

// LabelBuilds returns the number of full label-index builds:
// construction, rollbacks and size-rule rebuilds.
func (ic *IncrementalClosure) LabelBuilds() int64 { return ic.labelBuilds }

// LabelRebuilds returns the number of rebuilds forced by the size rule
// (see rebuildOverGrownLabels).
func (ic *IncrementalClosure) LabelRebuilds() int64 { return ic.labelRebuilds }

// LabelPatches returns the lifetime count of incremental label patches.
func (ic *IncrementalClosure) LabelPatches() int64 { return ic.labelPatches }

// Graph returns the underlying graph. Shared; mutate only through the
// IncrementalClosure.
func (ic *IncrementalClosure) Graph() *Graph { return ic.g }

// Fwd returns the forward closure (descendant rows). The returned
// Closure is updated in place by AddEdge and replaced by Grow/Rollback.
func (ic *IncrementalClosure) Fwd() *Closure { return ic.fwd }

// N returns the current node count.
func (ic *IncrementalClosure) N() int { return ic.g.N() }

// AddEdge inserts u→v into the graph and updates the closure and the
// label pair. It reports whether a new edge was inserted (duplicates
// are ignored, as in Graph.AddEdge) and fails — leaving every structure
// untouched — when the edge is a self-loop or would create a cycle (v
// already reaches u; the check is a single closure-bit test). When
// dirty is non-nil, the indices of every node whose forward-reachability
// row changed, plus u and v themselves (whose adjacency changed), are
// set in it; the registry derives dirty composites from exactly this
// set.
func (ic *IncrementalClosure) AddEdge(u, v int, dirty *bitset.Set) (bool, error) {
	ic.g.checkNode(u)
	ic.g.checkNode(v)
	if u == v {
		return false, fmt.Errorf("dag: self-loop on node %d", u)
	}
	if ic.fwd.Reaches(v, u) {
		return false, fmt.Errorf("%w: edge %d→%d closes a path back from %d to %d", ErrCycle, u, v, v, u)
	}
	if ic.g.hasEdgeFast(u, v) {
		return false, nil
	}
	ic.g.addEdgeUnchecked(u, v)
	if dirty != nil {
		dirty.Set(u)
		dirty.Set(v)
	}
	if ic.fwd.Reaches(u, v) {
		// The path u→…→v already existed; the closure is unchanged.
		return true, nil
	}
	// Reverse-label patches run first, while the forward rows are still
	// pre-insertion: every descendant x of v that u did not already
	// reach gains u's reflexive ancestor row (anc'(x) = anc(x) ∪
	// anc(u); u already reaching x implies anc(u) ⊆ anc(x), so the skip
	// is exact). revLabels' row u is never a patched row — u ∈ desc(v)
	// would be the cycle rejected above — so the merge source is stable,
	// and it still enumerates exactly anc(u) for the loop below.
	ic.fwd.Row(v).ForEach(func(x int) bool {
		if ic.fwd.Reaches(u, x) {
			return true
		}
		ic.revLabels.Patch(x, u)
		ic.labelPatches++
		return true
	})
	// Italiano propagation: every ancestor w of u (including u) that does
	// not yet reach v gains v's entire descendant row. No row read in
	// this loop is ever a row written: a written row belongs to an
	// ancestor of u, and neither fwd[v] nor the forward label row of v
	// can be such a row without closing the cycle rejected above.
	srcRow := ic.fwd.Row(v)
	ic.revLabels.forEachReachable(u, func(w int) {
		if ic.fwd.Reaches(w, v) {
			return
		}
		ic.fwd.Row(w).Or(srcRow)
		// Patch the label index in the same pass: w's reach set became
		// reach(w) ∪ reach(v), so merging v's row into w's keeps the
		// exact-set invariant.
		ic.labels.Patch(w, v)
		ic.labelPatches++
		if dirty != nil {
			dirty.Set(w)
		}
	})
	ic.rebuildOverGrownLabels()
	return true, nil
}

// Grow appends k isolated nodes to the graph, widens the closure matrix
// and extends the label pair, preserving every existing reachability
// bit. New nodes start with only their reflexive bit — exactly what a
// from-scratch closure of the grown graph holds. Grow replaces the
// Closure object returned by Fwd (the matrix changes dimension);
// holders of the old one must re-fetch.
func (ic *IncrementalClosure) Grow(k int) int {
	first := ic.g.AddNodes(k)
	if k == 0 {
		return first
	}
	ic.fwd = growClosure(ic.fwd, ic.g.N())
	ic.labels.Grow(k)
	ic.revLabels.Grow(k)
	ic.rebuildOverGrownLabels()
	return first
}

// growClosure widens c to n nodes, seeding the reflexive bit of each new
// node.
func growClosure(c *Closure, n int) *Closure {
	nc := newClosure(n)
	nc.m.Embed(c.m)
	for u := c.N(); u < n; u++ {
		nc.m.SetBit(u, u)
	}
	return nc
}

// Rollback unwinds a partially applied mutation batch: edges (as (u,v)
// index pairs) are popped in reverse insertion order, the node count
// shrinks back to n, and the closure and label pair are rebuilt from
// scratch. This is the error path of a batch rejected mid-way — the
// full rebuild cost is paid only when a mutation fails after changing
// something, never on success. With nothing to undo (no edge applied,
// node count unchanged; a failed AddEdge touches nothing) it returns at
// once, so a batch rejected at its first edge costs no rebuild.
func (ic *IncrementalClosure) Rollback(n int, edges [][2]int) {
	if len(edges) == 0 && n == ic.g.N() {
		return
	}
	for i := len(edges) - 1; i >= 0; i-- {
		ic.g.PopEdge(edges[i][0], edges[i][1])
	}
	ic.g.TruncateNodes(n)
	ic.rebuild()
}
