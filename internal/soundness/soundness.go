// Package soundness implements the Workflow View Validator of WOLVES.
//
// It provides the set-soundness oracle used by every corrector
// (Definition 2.3: a composite task is sound iff every member receiving
// external input reaches every member producing external output), the
// task-level view validator justified by Proposition 2.1 (sequential and
// parallel), a direct Definition-2.1 path-preservation check, and the
// exponential path-enumeration strawman the paper contrasts against.
package soundness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wolves/internal/bitset"
	"wolves/internal/dag"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Violation is a witness of unsoundness: an in-node of a composite that
// cannot reach one of its out-nodes in the workflow (Definition 2.3).
type Violation struct {
	From int // workflow task index in T.in
	To   int // workflow task index in T.out
}

// Oracle answers set-soundness queries against one workflow, reusing a
// precomputed reachability closure. It is safe for concurrent readers:
// per-call scratch state lives in a sync.Pool, and the instrumentation
// counter is atomic.
type Oracle struct {
	wf    *workflow.Workflow
	g     *dag.Graph
	reach *dag.Closure
	// checks counts SetSound invocations (experiment instrumentation).
	checks atomic.Int64
	// scratch pools the per-call buffers of SetSound/InOut so the steady
	// state allocates nothing per query.
	scratch sync.Pool
	// validators pools the per-worker state of view validation
	// (*validatorScratch). A taker empties its buffers first (reset).
	validators sync.Pool
}

// oracleScratch is the reusable per-call state of a soundness query.
type oracleScratch struct {
	in, out []int
	outMask *bitset.Set
}

// NewOracle builds an oracle for wf, computing the reachability closure.
func NewOracle(wf *workflow.Workflow) *Oracle {
	return NewOracleWithClosure(wf, wf.Graph(), wf.Graph().Reachability())
}

// NewOracleWithClosure builds an oracle over a caller-supplied graph and
// reachability closure, skipping the closure computation of NewOracle.
// The engine registry points a long-lived oracle at an incrementally
// maintained closure this way: the closure's matrix is updated in place
// as mutations arrive, so the oracle answers against current state
// without ever rebuilding. The caller guarantees that g is wf's
// dependency graph, that reach is (and stays) its reflexive-transitive
// closure, and that mutations are serialized against oracle readers.
func NewOracleWithClosure(wf *workflow.Workflow, g *dag.Graph, reach *dag.Closure) *Oracle {
	o := &Oracle{wf: wf, g: g, reach: reach}
	n := g.N()
	o.scratch.New = func() any {
		return &oracleScratch{outMask: bitset.New(n)}
	}
	o.validators.New = func() any {
		// A full validation gathers at most n in-nodes and n out-nodes.
		return &validatorScratch{members: bitset.New(n), outMask: bitset.New(n),
			in: make([]int, 0, n), out: make([]int, 0, n)}
	}
	return o
}

// Workflow returns the underlying workflow.
func (o *Oracle) Workflow() *workflow.Workflow { return o.wf }

// Reach returns the workflow reachability closure.
func (o *Oracle) Reach() *dag.Closure { return o.reach }

// Checks returns the number of SetSound calls served so far.
func (o *Oracle) Checks() int { return int(o.checks.Load()) }

// ResetChecks zeroes the SetSound counter.
func (o *Oracle) ResetChecks() { o.checks.Store(0) }

// InOut computes U.in and U.out per Definition 2.2 for an arbitrary task
// set U (not necessarily a composite of any view): members with at least
// one predecessor (resp. successor) outside U.
func (o *Oracle) InOut(members *bitset.Set) (in, out []int) {
	return o.InOutAppend(members, nil, nil)
}

// InOutAppend is InOut appending into caller-owned buffers (pass
// buf[:0] to reuse capacity across calls on hot paths).
func (o *Oracle) InOutAppend(members *bitset.Set, in, out []int) ([]int, []int) {
	members.ForEach(func(t int) bool {
		for _, p := range o.g.Preds(t) {
			if !members.Test(int(p)) {
				in = append(in, t)
				break
			}
		}
		for _, s := range o.g.Succs(t) {
			if !members.Test(int(s)) {
				out = append(out, t)
				break
			}
		}
		return true
	})
	return in, out
}

// SetSound reports whether the task set U is sound (Definition 2.3) and,
// when it is not, returns the first violation in ascending (from, to)
// order. Reachability is reflexive, so singletons are always sound. The
// sound path performs zero allocations.
func (o *Oracle) SetSound(members *bitset.Set) (bool, *Violation) {
	if from, to := o.setSound(members); from != -1 {
		return false, &Violation{From: from, To: to}
	}
	return true, nil
}

// SetSoundQuick is SetSound without the witness: correctors probing
// block unions discard the violation, so this variant stays
// allocation-free on both outcomes.
func (o *Oracle) SetSoundQuick(members *bitset.Set) bool {
	from, _ := o.setSound(members)
	return from == -1
}

// setSound returns the first violation as (from, to), or (-1, -1).
func (o *Oracle) setSound(members *bitset.Set) (int, int) {
	o.checks.Add(1)
	sc := o.scratch.Get().(*oracleScratch)
	defer o.scratch.Put(sc)
	sc.in, sc.out = o.InOutAppend(members, sc.in[:0], sc.out[:0])
	if len(sc.in) == 0 || len(sc.out) == 0 {
		return -1, -1
	}
	outMask := sc.outMask
	outMask.Reset()
	for _, t := range sc.out {
		outMask.Set(t)
	}
	for _, u := range sc.in {
		if missing := outMask.FirstNotIn(o.reach.Row(u)); missing != -1 {
			return u, missing
		}
	}
	return -1, -1
}

// SoundSlice is SetSound over a task-index slice.
func (o *Oracle) SoundSlice(members []int) (bool, *Violation) {
	s := bitset.New(o.g.N())
	for _, t := range members {
		s.Set(t)
	}
	return o.SetSound(s)
}

// MemberSet converts a composite of v into a bitset over workflow tasks.
func MemberSet(v *view.View, ci int) *bitset.Set {
	s := bitset.New(v.Workflow().N())
	for _, t := range v.Composite(ci).Members() {
		s.Set(t)
	}
	return s
}

// memberSetInto fills dst with the members of composite ci.
func memberSetInto(dst *bitset.Set, v *view.View, ci int) {
	dst.Reset()
	for _, t := range v.Composite(ci).Members() {
		dst.Set(t)
	}
}

// CompositeReport is the validation result for a single composite task.
type CompositeReport struct {
	ID         string
	Index      int
	Sound      bool
	In, Out    []int       // Definition 2.2 interface sets (task indices)
	Violations []Violation // capped at MaxViolations witnesses
}

// MaxViolations bounds the witnesses gathered per composite so that
// reports on pathological views stay readable.
const MaxViolations = 16

// Report is the result of validating a view.
type Report struct {
	View       string
	Sound      bool
	Composites []CompositeReport
	// Unsound lists indices of unsound composites, ascending.
	Unsound []int
}

// validatorScratch is the reusable per-worker state of view validation.
type validatorScratch struct {
	members *bitset.Set
	outMask *bitset.Set
	// in, out and viol gather the worker's interface sets and
	// violations. A composite report's slices alias them until the
	// caller moves them out (own).
	in, out []int
	viol    []Violation
}

// reset empties the gathering buffers for a new validation.
func (sc *validatorScratch) reset() {
	sc.in, sc.out, sc.viol = sc.in[:0], sc.out[:0], sc.viol[:0]
}

// validateComposite builds the report for composite ci using sc for all
// intermediate state. In, Out and Violations are appended to the
// worker's buffers and returned as slices of them, so the caller must
// move them into memory of their own (own) before sc is reused or
// dropped; own also turns empty sets into nil, so reports keep matching
// the historical shape (and NaiveValidator's, which still appends from
// nil).
func validateComposite(o *Oracle, v *view.View, ci int, sc *validatorScratch) CompositeReport {
	comp := v.Composite(ci)
	cr := CompositeReport{ID: comp.ID, Index: ci, Sound: true}
	memberSetInto(sc.members, v, ci)
	firstIn, firstOut, firstViol := len(sc.in), len(sc.out), len(sc.viol)
	sc.in, sc.out = o.InOutAppend(sc.members, sc.in, sc.out)
	cr.In, cr.Out = sc.in[firstIn:], sc.out[firstOut:]
	outMask := sc.outMask
	outMask.Reset()
	for _, t := range cr.Out {
		outMask.Set(t)
	}
	for _, u := range cr.In {
		full := false
		outMask.ForEachNotIn(o.reach.Row(u), func(to int) bool {
			sc.viol = append(sc.viol, Violation{From: u, To: to})
			full = len(sc.viol)-firstViol >= MaxViolations
			return !full
		})
		if full {
			break
		}
	}
	cr.Violations = sc.viol[firstViol:]
	cr.Sound = len(cr.Violations) == 0
	return cr
}

// own moves cr's slices — which alias a worker's scratch — into ints
// and viols, each at its exact length and capacity-limited, so appending
// to one can never overwrite its neighbour's, and returns what is left
// of both.
func (cr *CompositeReport) own(ints []int, viols []Violation) ([]int, []Violation) {
	cr.In, ints = carve(ints, cr.In)
	cr.Out, ints = carve(ints, cr.Out)
	cr.Violations, viols = carve(viols, cr.Violations)
	return ints, viols
}

// carve copies src to the front of dst and returns that part and the
// rest of dst; an empty src stays nil.
func carve[T any](dst, src []T) (part, rest []T) {
	if len(src) == 0 {
		return nil, dst
	}
	n := copy(dst, src)
	return dst[:n:n], dst[n:]
}

// ownAll moves every composite's slices into one exact []int and one
// exact []Violation: a full report costs those two allocations whatever
// its number of composites.
func ownAll(composites []CompositeReport) {
	ni, nv := 0, 0
	for ci := range composites {
		ni += len(composites[ci].In) + len(composites[ci].Out)
		nv += len(composites[ci].Violations)
	}
	ints, viols := make([]int, ni), make([]Violation, nv)
	for ci := range composites {
		ints, viols = composites[ci].own(ints, viols)
	}
}

// assembleReport folds per-composite results into the view report.
func assembleReport(v *view.View, composites []CompositeReport) *Report {
	rep := &Report{View: v.Name(), Sound: true, Composites: composites}
	unsound := 0
	for ci := range composites {
		if !composites[ci].Sound {
			unsound++
		}
	}
	if unsound == 0 {
		return rep
	}
	rep.Sound = false
	rep.Unsound = make([]int, 0, unsound)
	for ci := range composites {
		if !composites[ci].Sound {
			rep.Unsound = append(rep.Unsound, ci)
		}
	}
	return rep
}

// checkSameWorkflow panics unless v's workflow is interchangeable with
// the oracle's: the same object or a structurally identical one (equal
// fingerprints). Structural identity is what lets a long-lived oracle
// cache serve workflows decoded independently per request.
func (o *Oracle) checkSameWorkflow(v *view.View) {
	if !workflow.Same(v.Workflow(), o.wf) {
		panic("soundness: view belongs to a different workflow")
	}
}

// ValidateView checks every composite of v (Proposition 2.1) and returns
// a full diagnosis with witnesses.
func ValidateView(o *Oracle, v *view.View) *Report {
	o.checkSameWorkflow(v)
	sc := o.validators.Get().(*validatorScratch)
	defer o.validators.Put(sc)
	sc.reset()
	composites := make([]CompositeReport, v.N())
	for ci := range composites {
		composites[ci] = validateComposite(o, v, ci, sc)
	}
	ownAll(composites)
	return assembleReport(v, composites)
}

// validateViewCtx is ValidateView with cooperative cancellation: ctx is
// polled between composites, and a canceled context aborts the scan with
// ctx's error. It is ValidateViewParallelCtx's sequential path.
func validateViewCtx(ctx context.Context, o *Oracle, v *view.View) (*Report, error) {
	o.checkSameWorkflow(v)
	sc := o.validators.Get().(*validatorScratch)
	defer o.validators.Put(sc)
	sc.reset()
	composites := make([]CompositeReport, v.N())
	for ci := range composites {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		composites[ci] = validateComposite(o, v, ci, sc)
	}
	ownAll(composites)
	return assembleReport(v, composites), nil
}

// parallelValidateThreshold is the composite count below which
// ValidateViewParallel stays sequential: worker fan-out costs more than
// it saves on small views.
const parallelValidateThreshold = 8

// ValidateViewParallel is ValidateView with composites fanned out over a
// pool of workers (runtime.GOMAXPROCS when workers <= 0). The report is
// identical to the sequential one: composites are validated
// independently and reassembled in index order.
//
// Deprecated: use ValidateViewParallelCtx so callers can cancel. It
// stays only for cmd/wolvesbench, which calls it.
func ValidateViewParallel(o *Oracle, v *view.View, workers int) *Report {
	rep, err := ValidateViewParallelCtx(context.Background(), o, v, workers) //lint:allow ctxpass compat wrapper anchors its own root
	if err != nil {
		// Unreachable: the background context never cancels.
		panic("soundness: background validation canceled: " + err.Error())
	}
	return rep
}

// ValidateViewParallelCtx is ValidateViewParallel with cooperative
// cancellation: every worker polls ctx before claiming the next
// composite, so a canceled context drains the pool early and the call
// returns ctx's error instead of a partial report. workers == 1 is the
// sequential scan, polling ctx between composites.
func ValidateViewParallelCtx(ctx context.Context, o *Oracle, v *view.View, workers int) (*Report, error) {
	o.checkSameWorkflow(v)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := v.N()
	if workers > k {
		workers = k
	}
	if workers < 2 || k < parallelValidateThreshold {
		return validateViewCtx(ctx, o, v)
	}
	composites := make([]CompositeReport, k)
	// Each worker's scratch goes back to the pool only once ownAll has
	// moved the reports' slices out of it.
	scs := make([]*validatorScratch, workers)
	for w := range scs {
		scs[w] = o.validators.Get().(*validatorScratch)
		scs[w].reset()
	}
	defer func() {
		for _, sc := range scs {
			o.validators.Put(sc)
		}
	}()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, sc := range scs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				ci := int(next.Add(1)) - 1
				if ci >= k {
					return
				}
				composites[ci] = validateComposite(o, v, ci, sc)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ownAll(composites)
	return assembleReport(v, composites), nil
}

// FalsePath is a Definition-2.1 witness at the view level: composites
// From → To are connected in the view graph although no member of From
// reaches any member of To in the workflow.
type FalsePath struct {
	From, To int // composite indices
}

// PathReport is the direct Definition-2.1 diagnosis of a view.
type PathReport struct {
	Sound      bool
	FalsePaths []FalsePath
	// MissingPaths would witness workflow paths absent from the view;
	// quotient views can never miss paths, so this is always empty and
	// retained only to document the asymmetry.
	MissingPaths []FalsePath
}

// ValidateViewPaths applies Definition 2.1 literally (but polynomially,
// via closures): the view has a path between two composites iff some pair
// of their members is connected in the workflow. Unsound views only ever
// add paths; the test suite pins the corner case where this view-level
// check passes although a composite violates Definition 2.3.
func ValidateViewPaths(o *Oracle, v *view.View) *PathReport {
	rep := &PathReport{Sound: true}
	q := v.Graph()
	qReach := q.Reachability()
	k := v.N()
	// blockRow[c] = union of workflow reach rows of members of c.
	blockRow := make([]*bitset.Set, k)
	memberMask := make([]*bitset.Set, k)
	for c := 0; c < k; c++ {
		row := bitset.New(o.g.N())
		for _, t := range v.Composite(c).Members() {
			row.Or(o.reach.Row(t))
		}
		blockRow[c] = row
		memberMask[c] = MemberSet(v, c)
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a == b {
				continue
			}
			viewPath := qReach.Reaches(a, b)
			wfPath := blockRow[a].Intersects(memberMask[b])
			if viewPath && !wfPath {
				rep.Sound = false
				rep.FalsePaths = append(rep.FalsePaths, FalsePath{From: a, To: b})
			}
			if wfPath && !viewPath {
				rep.Sound = false
				rep.MissingPaths = append(rep.MissingPaths, FalsePath{From: a, To: b})
			}
		}
	}
	return rep
}

// DescribeViolation renders a violation with task IDs.
func DescribeViolation(wf *workflow.Workflow, viol Violation) string {
	return fmt.Sprintf("%s ∈ T.in cannot reach %s ∈ T.out",
		wf.Task(viol.From).ID, wf.Task(viol.To).ID)
}
