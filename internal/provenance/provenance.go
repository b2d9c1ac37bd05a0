// Package provenance implements the provenance analysis that motivates
// WOLVES: lineage (transitive-closure) queries over workflow executions,
// answered either at the workflow level (exact) or at the view level
// (cheaper, but only correct when the view is sound).
//
// The paper's running example: with the unsound view of Figure 1(b), the
// provenance of the output of composite 18 wrongly includes composite 14,
// because the view has a path 14→16→18 although no task inside 14 reaches
// any task inside 18. AuditView quantifies exactly this class of error.
package provenance

import (
	"sync"

	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Engine answers task-level lineage queries against one workflow. It is
// safe for concurrent readers: the one-time ancestor-row build is
// guarded by a sync.Once, and every query afterwards only reads.
type Engine struct {
	wf  *workflow.Workflow
	fwd *dag.Closure // forward reachability: Row(u) = descendants of u

	ancOnce sync.Once     // guards the one-time construction of anc
	anc     []*bitset.Set // ancestors of u, built by transposing fwd
}

// NewEngine builds the workflow-level lineage engine, computing the
// forward closure; ancestor rows are transposed lazily on first use.
func NewEngine(wf *workflow.Workflow) *Engine {
	return &Engine{wf: wf, fwd: wf.Graph().Reachability()}
}

// Workflow returns the engine's workflow.
func (e *Engine) Workflow() *workflow.Workflow { return e.wf }

func (e *Engine) ancestors() []*bitset.Set {
	e.ancOnce.Do(func() {
		n := e.fwd.N()
		e.anc = make([]*bitset.Set, n)
		for v := 0; v < n; v++ {
			e.anc[v] = bitset.New(n)
		}
		for u := 0; u < n; u++ {
			row := e.fwd.Row(u)
			row.ForEach(func(v int) bool {
				e.anc[v].Set(u)
				return true
			})
		}
	})
	return e.anc
}

// Lineage returns the provenance of task t's output: every task t' ≠ t
// with a path t'→t, ascending. This is the paper's "sequence of steps
// used to produce the data" at task granularity.
func (e *Engine) Lineage(t int) []int {
	anc := e.ancestors()[t].Clone()
	anc.Clear(t)
	return anc.Members()
}

// LineageSet returns the ancestor set of t including t itself. The set
// is shared with the engine; do not mutate.
func (e *Engine) LineageSet(t int) *bitset.Set { return e.ancestors()[t] }

// DescendantSet returns the closure row of t — every task reachable
// from t, including t itself. Shared with the engine; do not mutate.
func (e *Engine) DescendantSet(t int) *bitset.Set { return e.fwd.Row(t) }

// Descendants returns every task reachable from t, excluding t.
func (e *Engine) Descendants(t int) []int {
	d := e.fwd.Row(t).Clone()
	d.Clear(t)
	return d.Members()
}

// Reaches reports whether u's output contributes to v.
func (e *Engine) Reaches(u, v int) bool { return e.fwd.Reaches(u, v) }

// ClosurePairs returns the size of the task-level provenance relation.
func (e *Engine) ClosurePairs() int { return e.fwd.Pairs() }

// ViewEngine answers lineage queries at the view (composite) level.
// Queries cost a closure over the (much smaller) view graph; the answer
// for a task is the union of the member sets of the view-level ancestor
// composites — exactly what a user of the Figure 1(b) view sees.
type ViewEngine struct {
	v      *view.View
	qReach *dag.Closure
	anc    []*bitset.Set // composite-level ancestors
}

// NewViewEngine builds the view-level engine.
func NewViewEngine(v *view.View) *ViewEngine {
	q := v.Graph()
	ve := &ViewEngine{v: v, qReach: q.Reachability()}
	k := v.N()
	ve.anc = make([]*bitset.Set, k)
	for c := 0; c < k; c++ {
		ve.anc[c] = bitset.New(k)
	}
	for a := 0; a < k; a++ {
		ve.qReach.Row(a).ForEach(func(b int) bool {
			ve.anc[b].Set(a)
			return true
		})
	}
	return ve
}

// View returns the engine's view.
func (ve *ViewEngine) View() *view.View { return ve.v }

// CompositeLineage returns the composites with a view path to ci,
// excluding ci itself.
func (ve *ViewEngine) CompositeLineage(ci int) []int {
	s := ve.anc[ci].Clone()
	s.Clear(ci)
	return s.Members()
}

// CompositeDescendants returns the composites reachable from ci in the
// view graph, excluding ci itself — the downstream dual of
// CompositeLineage, used for impact ("what consumed this?") queries.
func (ve *ViewEngine) CompositeDescendants(ci int) []int {
	s := ve.qReach.Row(ci).Clone()
	s.Clear(ci)
	return s.Members()
}

// TaskLineage answers "what is the provenance of task t's output?" the
// way a view user would: all members of all composites upstream of t's
// composite. Tasks of t's own composite other than t are excluded — the
// view cannot resolve within-composite structure, and including the
// whole home composite would charge the view for errors the paper does
// not attribute to it.
func (ve *ViewEngine) TaskLineage(t int) []int {
	home := ve.v.CompOf(t)
	out := bitset.New(ve.v.Workflow().N())
	ve.anc[home].ForEach(func(c int) bool {
		if c == home {
			return true
		}
		for _, m := range ve.v.Composite(c).Members() {
			out.Set(m)
		}
		return true
	})
	return out.Members()
}

// TaskDescendants is the downstream dual of TaskLineage: all members of
// all composites downstream of t's composite, as a view user would
// answer "what depends on task t's output?".
func (ve *ViewEngine) TaskDescendants(t int) []int {
	home := ve.v.CompOf(t)
	out := bitset.New(ve.v.Workflow().N())
	ve.qReach.Row(home).ForEach(func(c int) bool {
		if c == home {
			return true
		}
		for _, m := range ve.v.Composite(c).Members() {
			out.Set(m)
		}
		return true
	})
	return out.Members()
}

// ClosurePairs returns the size of the composite-level provenance
// relation — the paper's argument for views: this is much smaller than
// the task-level relation.
func (ve *ViewEngine) ClosurePairs() int { return ve.qReach.Pairs() }
