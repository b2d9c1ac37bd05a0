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
// Edge insertion uses Italiano-style row OR-propagation: inserting u→v
// unions v's descendant row into the row of every ancestor w of u that
// does not already reach v. The ancestor set is read from a transposed
// closure maintained in the same pass. The update cost is
// O(|anc(u)| · V/64) word operations plus one transposed-bit write per
// newly reachable pair — for a single edge on a large workflow this is
// orders of magnitude below a rebuild.
//
// The same pass patches the forward and reverse reachability label
// indexes (labels.go), so a committed edge costs label work only for
// the rows whose reach changed. The pair is rebuilt only when patching
// has doubled its size since the last build; there is no periodic
// rebuild, so local edit streams never pay O(n+m) label construction.
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
	rev *Closure // Row(v) = reflexive ancestors of v (transpose of fwd)

	// labels/revLabels are the reachability label indexes maintained
	// alongside the closures: labels answers "u reaches v", revLabels is
	// built over the predecessor lists so its rows enumerate ancestors.
	// Edge insertion patches both in the same Italiano pass that ORs
	// closure rows, and Grow extends them. The pair is dropped — and
	// lazily rebuilt on the next Labels() call — only when patching has
	// doubled its size since the build (dropOverGrownLabels). Both nil
	// exactly while stale.
	labels        *Labels
	revLabels     *Labels
	labelsStale   bool
	labelBudget   func(n int) int // interval budget of label builds
	labelBuilt    int             // pair size (intervals + words) at the last build
	labelBuilds   int64           // label-index (pair) builds: initial + rebuilds
	labelRebuilds int64           // rebuilds forced by the size rule
	labelPatches  int64           // lifetime Patch calls, both directions
}

// NewIncrementalClosure computes the initial closure of g (which must be
// acyclic) and its transpose, and takes ownership of g.
func NewIncrementalClosure(g *Graph) (*IncrementalClosure, error) {
	return newIncrementalClosure(g, labelBudget)
}

// newIncrementalClosure is NewIncrementalClosure with an explicit label
// interval budget (tests force bitmap rows with a zero budget).
func newIncrementalClosure(g *Graph, budget func(n int) int) (*IncrementalClosure, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	ic := &IncrementalClosure{g: g, labelBudget: budget}
	ic.rebuild()
	return ic, nil
}

// rebuild recomputes both closures from the graph (construction and
// the rare rollback path). The label pair is marked stale rather than
// built: the first Labels()/RevLabels() read builds it, so a workflow
// that is registered and mutated before anyone queries it — the replay
// profile, where epoch publication is deferred wholesale — never pays
// for label builds it immediately invalidates.
func (ic *IncrementalClosure) rebuild() {
	ic.fwd = ic.g.Reachability()
	ic.rev = transpose(ic.fwd)
	ic.labels, ic.revLabels = nil, nil
	ic.labelsStale = true
}

// rebuildLabels builds the forward/reverse label pair.
func (ic *IncrementalClosure) rebuildLabels() {
	ic.labels, ic.revLabels = buildLabelPair(ic.g, ic.labelBudget(ic.g.n))
	ic.labelBuilt = ic.labelSize()
	ic.labelsStale = false
	ic.labelBuilds++
}

// labelSize is the pair's current size: intervals plus bitmap words,
// both directions.
func (ic *IncrementalClosure) labelSize() int {
	return ic.labels.intervals + ic.labels.words + ic.revLabels.intervals + ic.revLabels.words
}

// dropOverGrownLabels drops the patched pair, marking it stale so the
// next Labels()/RevLabels() call rebuilds fresh, once it has doubled in
// size since its last build or an interval index has passed the
// interval budget (the rebuild then picks bitmap rows). Patches can
// fragment covers, but not much under local edits: on a 4096-task
// layered DAG taking random forward edges that span at most n/16
// tasks, the patched forward cover is 1.02×, 1.10× and 1.38× a fresh
// build's after 250, 1000 and 4000 edges (reverse 1.00×), while the
// pair's total size never exceeds 1.01× its built size — far from 2×.
func (ic *IncrementalClosure) dropOverGrownLabels() {
	if ic.labels == nil {
		return
	}
	budget := ic.labelBudget(ic.g.n)
	if ic.labelSize() <= 2*ic.labelBuilt && ic.labels.intervals <= budget && ic.revLabels.intervals <= budget {
		return
	}
	ic.labels, ic.revLabels = nil, nil
	ic.labelsStale = true
	ic.labelRebuilds++
}

// Labels returns the current forward label index, rebuilding the pair
// first when it is stale; never nil. The returned index is mutated by
// AddEdge/Grow; concurrent readers must hold a Fork instead.
func (ic *IncrementalClosure) Labels() *Labels {
	if ic.labelsStale {
		ic.rebuildLabels()
	}
	return ic.labels
}

// RevLabels returns the reverse (ancestor-direction) label index. Same
// rebuild and sharing rules as Labels.
func (ic *IncrementalClosure) RevLabels() *Labels {
	if ic.labelsStale {
		ic.rebuildLabels()
	}
	return ic.revLabels
}

// LabelBuilds returns the number of full label-index builds.
func (ic *IncrementalClosure) LabelBuilds() int64 { return ic.labelBuilds }

// LabelRebuilds returns the number of rebuilds forced by the size rule
// (see dropOverGrownLabels).
func (ic *IncrementalClosure) LabelRebuilds() int64 { return ic.labelRebuilds }

// LabelPatches returns the lifetime count of incremental label patches.
func (ic *IncrementalClosure) LabelPatches() int64 { return ic.labelPatches }

// transpose builds the reversed closure: t.Row(v) holds every u with
// u→…→v (reflexively).
func transpose(c *Closure) *Closure {
	n := c.N()
	t := newClosure(n)
	for u := 0; u < n; u++ {
		row := c.Row(u)
		row.ForEach(func(v int) bool {
			t.m.SetBit(v, u)
			return true
		})
	}
	return t
}

// Graph returns the underlying graph. Shared; mutate only through the
// IncrementalClosure.
func (ic *IncrementalClosure) Graph() *Graph { return ic.g }

// Fwd returns the forward closure (descendant rows). The returned
// Closure is updated in place by AddEdge and replaced by Grow/Rollback.
func (ic *IncrementalClosure) Fwd() *Closure { return ic.fwd }

// N returns the current node count.
func (ic *IncrementalClosure) N() int { return ic.g.N() }

// AddEdge inserts u→v into the graph and updates both closures. It
// reports whether a new edge was inserted (duplicates are ignored, as in
// Graph.AddEdge) and fails — leaving every structure untouched — when
// the edge is a self-loop or would create a cycle (v already reaches u;
// the check is a single closure-bit test). When dirty is non-nil, the
// indices of every node whose forward-reachability row changed, plus u
// and v themselves (whose adjacency changed), are set in it; the
// registry derives dirty composites from exactly this set.
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
	// reach gains u's reflexive ancestor cover (anc'(x) = anc(x) ∪
	// anc(u); u already reaching x implies anc(u) ⊆ anc(x), so the skip
	// is exact). rows_rev[u] is never the patched row — u ∈ desc(v)
	// would be the cycle rejected above — so the merge source is stable.
	if rl := ic.revLabels; rl != nil {
		ic.fwd.Row(v).ForEach(func(x int) bool {
			if ic.fwd.Reaches(u, x) {
				return true
			}
			rl.Patch(x, u)
			ic.labelPatches++
			return true
		})
	}
	// Italiano propagation: every ancestor w of u (including u) that does
	// not yet reach v gains v's entire descendant row. The newly set bits
	// of each row are mirrored into the transposed closure before the OR,
	// so rev stays the exact transpose of fwd throughout. No row read in
	// this loop is ever a row written: a written row belongs to an
	// ancestor of u, and neither fwd[v] nor rev[u] can be such a row
	// without closing the cycle rejected above.
	srcRow := ic.fwd.Row(v)
	ic.rev.Row(u).ForEach(func(w int) bool {
		if ic.fwd.Reaches(w, v) {
			return true
		}
		dstRow := ic.fwd.Row(w)
		srcRow.ForEachNotIn(dstRow, func(x int) bool {
			ic.rev.m.SetBit(x, w)
			return true
		})
		dstRow.Or(srcRow)
		// Patch the label index in the same pass: w's reach set became
		// reach(w) ∪ reach(v), so merging v's interval cover into w's
		// keeps the exact-cover invariant (v is never an ancestor of u
		// here, so rows[v] is stable throughout the loop).
		if lbl := ic.labels; lbl != nil {
			lbl.Patch(w, v)
			ic.labelPatches++
		}
		if dirty != nil {
			dirty.Set(w)
		}
		return true
	})
	ic.dropOverGrownLabels()
	return true, nil
}

// Grow appends k isolated nodes to the graph and widens both closure
// matrices, preserving every existing reachability bit. New nodes start
// with only their reflexive bit — exactly what a from-scratch closure of
// the grown graph holds. Grow replaces the Closure object returned by
// Fwd (the matrices change dimension); holders of the old one must
// re-fetch.
func (ic *IncrementalClosure) Grow(k int) int {
	first := ic.g.AddNodes(k)
	if k == 0 {
		return first
	}
	n := ic.g.N()
	ic.fwd = growClosure(ic.fwd, n)
	ic.rev = growClosure(ic.rev, n)
	if ic.labels != nil {
		ic.labels.Grow(k)
		ic.revLabels.Grow(k)
		ic.dropOverGrownLabels()
	}
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
// shrinks back to n, and both closures are rebuilt from scratch. This is
// the error path of a rejected batch — the full rebuild cost is paid
// only when a mutation fails mid-way, never on success.
func (ic *IncrementalClosure) Rollback(n int, edges [][2]int) {
	for i := len(edges) - 1; i >= 0; i-- {
		ic.g.PopEdge(edges[i][0], edges[i][1])
	}
	ic.g.TruncateNodes(n)
	ic.rebuild()
}
