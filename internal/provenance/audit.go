package provenance

import (
	"math/bits"

	"wolves/internal/dag"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file computes the view audit: the view's false-provenance delta
// at composite granularity, which audited lineage answers attach per
// query. AuditLabels is the one implementation. It runs over flat bit
// matrices of ⌈k/64⌉-word rows, k the number of composites:
//
//   - true reach: each composite's members are marked in the task
//     labels (MarkRow), and the set bits of the mark are projected onto
//     composites through the labels' position→node table, each node
//     read as its composite; a fully set mark word, common because a
//     task row covers long runs of positions, ORs in a precomputed
//     summary of its 64 positions' composites instead;
//   - the true relation is transposed into the upstream direction, and
//     each composite's reported upstream set is projected the same way
//     from the view's reverse quotient labels;
//   - every count is a popcount, and the spurious and missing pairs are
//     AND-NOTs of the two rows, stored in CSR form.
//
// Scratch is one word slab plus the task→composite table, so an audit
// costs a fixed number of allocations whatever k, n or the number of
// false pairs.

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

	// The four delta relations, read through the accessors below. They
	// are internal detail, not part of the audit's JSON shape.
	spuriousUp, spuriousDown, missingUp, missingDown relation
}

// relation is one composite relation of an audit in CSR form: row i is
// members[start[i]:start[i+1]], ascending. Both tables are nil when the
// relation is empty.
type relation struct {
	start, members []int32
}

func (r relation) row(i int) []int32 {
	if r.start == nil {
		return nil
	}
	return r.members[r.start[i]:r.start[i+1]]
}

// SpuriousUpstream returns the composites the view reports upstream of
// b without a real member-level path, ascending; the run store's
// audited lineage answers attach exactly this delta per query. The
// slice is shared with the audit: do not modify it.
func (a *ViewAudit) SpuriousUpstream(b int) []int32 { return a.spuriousUp.row(b) }

// SpuriousDownstream is the transposed relation: the composites falsely
// reported downstream of c, ascending. Shared; do not modify.
func (a *ViewAudit) SpuriousDownstream(c int) []int32 { return a.spuriousDown.row(c) }

// MissingUpstream is the dual of SpuriousUpstream for under-reporting:
// real upstream composites of b the view does not report. It is empty
// for quotient views. Shared; do not modify.
func (a *ViewAudit) MissingUpstream(b int) []int32 { return a.missingUp.row(b) }

// MissingDownstream is MissingUpstream transposed. Shared; do not
// modify.
func (a *ViewAudit) MissingDownstream(c int) []int32 { return a.missingDown.row(c) }

// AuditView is Audit behind wolves.AuditProvenance's signature. e is
// used only to check that v belongs to e's workflow (it panics if not);
// its closure plays no part in the audit.
func AuditView(e *Engine, v *view.View) *ViewAudit {
	if !workflow.Same(v.Workflow(), e.wf) {
		panic("provenance: view belongs to a different workflow")
	}
	return Audit(v)
}

// Audit compares view-level lineage answers with workflow ground truth
// for every composite: it builds the label indexes of v's workflow and
// of v's quotient graph and runs AuditLabels over them.
func Audit(v *view.View) *ViewAudit {
	_, viewAnc := dag.BuildLabelPair(v.Graph())
	return AuditLabels(v, dag.BuildLabels(v.Workflow().Graph()), viewAnc)
}

// AuditLabels audits v over reachability label indexes: reach indexes
// the task graph of v's workflow at v's version (members' MarkRow gives
// true composite reach), and viewAnc is the ancestor-direction index of
// v's quotient graph (the reported upstream composites). It reads
// nothing of the live workflow — only v's immutable partition and the
// two indexes — so it can build the audit of a published read epoch
// without the workflow's lock.
func AuditLabels(v *view.View, reach, viewAnc *dag.Labels) *ViewAudit {
	k := v.N()
	kw, tw := dag.MarkWords(k), dag.MarkWords(reach.N())
	// The task mark and summary, the quotient summary, down, up, and
	// the quotient mark and row.
	words := make([]uint64, (tw+kw)*(kw+1)+(2*k+1)*kw)
	start, nodes := reach.PosNodes()
	comps := make([]int32, len(nodes))
	for i, t := range nodes {
		comps[i] = int32(v.CompOf(int(t)))
	}
	tasks := newPositions(start, comps, kw, &words)
	// A quotient node is its composite.
	start, nodes = viewAnc.PosNodes()
	quot := newPositions(start, nodes, kw, &words)

	// down[a] (row a of a k×k bit matrix): the composites some member of
	// a reaches.
	mark, down := carve(&words, tw), carve(&words, k*kw)
	for a := 0; a < k; a++ {
		for _, t := range v.Composite(a).Members() {
			reach.MarkRow(mark, t)
		}
		tasks.project(down[a*kw:(a+1)*kw], mark)
	}
	// up[b]: the composites with a member that reaches a member of b.
	up := carve(&words, k*kw)
	for a := 0; a < k; a++ {
		for i, x := range down[a*kw : (a+1)*kw] {
			for ; x != 0; x &= x - 1 {
				b := i<<6 | bits.TrailingZeros64(x)
				up[b*kw+a>>6] |= 1 << (uint(a) & 63)
			}
		}
	}

	// Row by row: rep is b's reported upstream set. Spurious rows
	// overwrite down, which the transposition consumed; missing rows
	// overwrite up in place.
	au := &ViewAudit{Composites: k}
	cmark, rep, spur := carve(&words, kw), carve(&words, kw), down
	for b := 0; b < k; b++ {
		clear(rep)
		viewAnc.MarkRow(cmark, b)
		quot.project(rep, cmark)
		truth := up[b*kw : (b+1)*kw]
		rep[b>>6] &^= 1 << (uint(b) & 63)
		truth[b>>6] &^= 1 << (uint(b) & 63)
		sp, wrong := spur[b*kw:(b+1)*kw], false
		for i, r := range rep {
			t := truth[i]
			au.TruePairs += bits.OnesCount64(t)
			au.ReportedPairs += bits.OnesCount64(r)
			sp[i], truth[i] = r&^t, t&^r
			au.FalsePairs += bits.OnesCount64(sp[i])
			au.MissingPairs += bits.OnesCount64(truth[i])
			wrong = wrong || sp[i] != 0
		}
		if wrong {
			au.WrongQueries++
		}
	}
	au.spuriousUp, au.spuriousDown = relations(spur, k, au.FalsePairs)
	au.missingUp, au.missingDown = relations(up, k, au.MissingPairs)
	if au.ReportedPairs == 0 {
		au.Precision = 1.0
	} else {
		au.Precision = float64(au.ReportedPairs-au.FalsePairs) / float64(au.ReportedPairs)
	}
	return au
}

// positions maps the postorder positions of a label index onto
// composites: position p holds comps[start[p]:start[p+1]], the
// composites of its nodes (one node per position on an acyclic graph;
// a strongly connected component's members share one).
// summary[i*kw:(i+1)*kw] is the composite set of mark word i's 64
// positions.
type positions struct {
	start, comps []int32
	summary      []uint64
	kw           int
}

// newPositions indexes the position table start/comps, carving its
// summary from words.
func newPositions(start, comps []int32, kw int, words *[]uint64) positions {
	n := len(start) - 1
	ps := positions{start: start, comps: comps, summary: carve(words, dag.MarkWords(n)*kw), kw: kw}
	for p := 0; p < n; p++ {
		for _, c := range comps[start[p]:start[p+1]] {
			ps.summary[(p>>6)*kw+int(c>>6)] |= 1 << (uint(c) & 63)
		}
	}
	return ps
}

// project ORs into row the composites at every position set in mark,
// and clears mark for the next MarkRow. A fully set word ORs in its
// summary whole.
func (ps positions) project(row, mark []uint64) {
	for i, x := range mark {
		if x == ^uint64(0) {
			for j, s := range ps.summary[i*ps.kw : (i+1)*ps.kw] {
				row[j] |= s
			}
			x = 0
		}
		for ; x != 0; x &= x - 1 {
			p := i<<6 | bits.TrailingZeros64(x)
			for _, c := range ps.comps[ps.start[p]:ps.start[p+1]] {
				row[c>>6] |= 1 << (uint(c) & 63)
			}
		}
		mark[i] = 0
	}
}

// relations returns the relation of the k×k bit matrix m (row b: the
// set bits of m's row b) and its transpose, in CSR form, both empty
// when m holds no pairs.
func relations(m []uint64, k, pairs int) (rows, cols relation) {
	if pairs == 0 {
		return relation{}, relation{}
	}
	kw := dag.MarkWords(k)
	rows = relation{start: make([]int32, k+1), members: make([]int32, 0, pairs)}
	cols = relation{start: make([]int32, k+1), members: make([]int32, pairs)}
	for b := 0; b < k; b++ {
		for i, x := range m[b*kw : (b+1)*kw] {
			for ; x != 0; x &= x - 1 {
				a := i<<6 | bits.TrailingZeros64(x)
				rows.members = append(rows.members, int32(a))
				cols.start[a+1]++
			}
		}
		rows.start[b+1] = int32(len(rows.members))
	}
	for a := 1; a <= k; a++ {
		cols.start[a] += cols.start[a-1]
	}
	for b := 0; b < k; b++ {
		for _, a := range rows.row(b) {
			cols.members[cols.start[a]] = int32(b)
			cols.start[a]++
		}
	}
	copy(cols.start[1:], cols.start[:k])
	cols.start[0] = 0
	return rows, cols
}

// carve returns the next m elements of *slab and advances it.
func carve(slab *[]uint64, m int) []uint64 {
	s := (*slab)[:m:m]
	*slab = (*slab)[m:]
	return s
}
