package provenance

import (
	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// ViewAudit quantifies the provenance error a view induces, at composite
// granularity (the granularity at which view users read answers).
//
// Ground truth for a pair (A, B): some member of A reaches some member
// of B in the workflow. The view reports (A, B) when the view graph has
// a path A→…→B. Quotient views never under-report (every workflow path
// contracts to a view walk), so errors are always false positives — the
// paper's "output of task (14) is not part of the provenance of the
// output of task (18)" scenario.
type ViewAudit struct {
	Composites int
	// TruePairs counts ordered composite pairs (A,B), A≠B, with a real
	// member-level path; ReportedPairs counts pairs the view claims.
	TruePairs     int
	ReportedPairs int
	// FalsePairs = reported but not real; MissingPairs must be zero.
	FalsePairs   int
	MissingPairs int
	// WrongQueries counts composites whose lineage answer contains at
	// least one false composite.
	WrongQueries int
	// Precision = TruePairs / ReportedPairs (1.0 when nothing reported).
	Precision float64

	// SpuriousUpstream[b] lists the composites the view reports upstream
	// of b without a real member-level path (ascending); the run store's
	// audited lineage answers attach exactly this delta per query.
	// SpuriousDownstream is the transposed relation (a → falsely reported
	// descendants of a); MissingUpstream/MissingDownstream are the duals
	// for under-reporting and stay empty for quotient views. All four are
	// internal detail, not part of the audit's JSON shape.
	SpuriousUpstream   [][]int `json:"-"`
	SpuriousDownstream [][]int `json:"-"`
	MissingUpstream    [][]int `json:"-"`
	MissingDownstream  [][]int `json:"-"`
}

// AuditView compares view-level lineage answers with workflow ground
// truth for every composite.
func AuditView(e *Engine, v *view.View) *ViewAudit {
	if !workflow.Same(v.Workflow(), e.wf) {
		panic("provenance: view belongs to a different workflow")
	}
	k := v.N()
	// trueReach[A] = set of composites containing a task reachable from
	// some member of A.
	n := e.wf.N()
	trueReach := make([]*bitset.Set, k)
	for c := 0; c < k; c++ {
		row := bitset.New(n)
		for _, t := range v.Composite(c).Members() {
			row.Or(e.fwd.Row(t))
		}
		cs := bitset.New(k)
		row.ForEach(func(t int) bool {
			cs.Set(v.CompOf(t))
			return true
		})
		trueReach[c] = cs
	}
	return countPairs(trueReach, NewViewEngine(v).anc)
}

// AuditLabels is AuditView over reachability label indexes instead of
// closures: reach indexes the task graph of v's workflow at v's
// version (members' MarkRow gives true composite reach), and viewAnc is
// the ancestor-direction index of v's quotient graph (the reported
// upstream composites). It reads nothing of the live workflow — only
// v's immutable partition and the two indexes — so it can build the
// audit of a published read epoch without the workflow's lock.
func AuditLabels(v *view.View, reach, viewAnc *dag.Labels) *ViewAudit {
	k, n := v.N(), reach.N()
	trueReach := make([]*bitset.Set, k)
	mark := make([]uint64, dag.MarkWords(n))
	for c := 0; c < k; c++ {
		clear(mark)
		for _, t := range v.Composite(c).Members() {
			reach.MarkRow(mark, t)
		}
		cs := bitset.New(k)
		for t := 0; t < n; t++ {
			if reach.Marked(mark, t) {
				cs.Set(v.CompOf(t))
			}
		}
		trueReach[c] = cs
	}
	reported := make([]*bitset.Set, k)
	cmark := make([]uint64, dag.MarkWords(k))
	for b := 0; b < k; b++ {
		clear(cmark)
		viewAnc.MarkRow(cmark, b)
		rs := bitset.New(k)
		for a := 0; a < k; a++ {
			if viewAnc.Marked(cmark, a) {
				rs.Set(a)
			}
		}
		reported[b] = rs
	}
	return countPairs(trueReach, reported)
}

// countPairs is the audit's pair-counting loop, shared by AuditView and
// AuditLabels. trueReach[a] holds every composite some member of a
// reaches; reported[b] every composite the view places upstream of b.
// Both relations are reflexive; the diagonal is not counted.
func countPairs(trueReach, reported []*bitset.Set) *ViewAudit {
	k := len(trueReach)
	a := &ViewAudit{
		Composites:         k,
		SpuriousUpstream:   make([][]int, k),
		SpuriousDownstream: make([][]int, k),
		MissingUpstream:    make([][]int, k),
		MissingDownstream:  make([][]int, k),
	}
	for b := 0; b < k; b++ {
		wrong := false
		for a2 := 0; a2 < k; a2++ {
			if a2 == b {
				continue
			}
			real := trueReach[a2].Test(b)
			rep := reported[b].Test(a2)
			if real {
				a.TruePairs++
			}
			if rep {
				a.ReportedPairs++
			}
			switch {
			case rep && !real:
				a.FalsePairs++
				wrong = true
				a.SpuriousUpstream[b] = append(a.SpuriousUpstream[b], a2)
				a.SpuriousDownstream[a2] = append(a.SpuriousDownstream[a2], b)
			case real && !rep:
				a.MissingPairs++
				a.MissingUpstream[b] = append(a.MissingUpstream[b], a2)
				a.MissingDownstream[a2] = append(a.MissingDownstream[a2], b)
			}
		}
		if wrong {
			a.WrongQueries++
		}
	}
	if a.ReportedPairs == 0 {
		a.Precision = 1.0
	} else {
		a.Precision = float64(a.ReportedPairs-a.FalsePairs) / float64(a.ReportedPairs)
	}
	return a
}
