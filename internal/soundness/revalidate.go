package soundness

import (
	"fmt"

	"wolves/internal/bitset"
	"wolves/internal/view"
)

// This file implements dirty-set revalidation, the soundness half of the
// live workflow registry. A composite's report depends on exactly two
// inputs: the adjacency lists of its members (which determine T.in and
// T.out per Definition 2.2) and the reachability rows of its members
// (which decide Definition 2.3). A mutation batch therefore invalidates
// precisely the composites containing a node whose adjacency or
// reachability row changed — the dirty set the IncrementalClosure
// reports — and every other composite's report is reusable verbatim.
// Merging the recomputed reports into the previous full report yields a
// result identical to a from-scratch ValidateView, which the equivalence
// tests pin byte-for-byte.

// Delta is a partial revalidation of a view: fresh reports for the dirty
// composites only. Merge folds it into the previous full report.
type Delta struct {
	View string
	// Composites holds the recomputed reports, in the order the dirty
	// indices were given (ascending when produced by DirtyComposites).
	Composites []CompositeReport
}

// Revalidate recomputes the soundness reports of exactly the composites
// listed in dirty (composite indices into v). The caller derives dirty
// from the mutation's changed-node set — DirtyComposites does this
// mapping — and must include every composite whose members' adjacency or
// reachability changed, plus any composite index new since the previous
// report; composites outside the set are assumed unchanged.
//
// The delta owns its slices like a full report: In and Out carved from
// one exact array, Violations from another.
func Revalidate(o *Oracle, v *view.View, dirty []int) *Delta {
	o.checkSameWorkflow(v)
	sc := o.validators.Get().(*validatorScratch)
	defer o.validators.Put(sc)
	sc.reset()
	d := &Delta{View: v.Name(), Composites: make([]CompositeReport, 0, len(dirty))}
	for _, ci := range dirty {
		d.Composites = append(d.Composites, validateComposite(o, v, ci, sc))
	}
	ownAll(d.Composites)
	return d
}

// Merge folds a delta into the previous full report of v, returning a
// new report (prev is never mutated; holders of it keep a consistent
// snapshot). The composites carried over from prev move into one exact
// []int and one exact []Violation of the merged report's own; the
// delta's keep the delta's arrays, which the merged report uses whole.
// So a merged report pins no array it only partly uses. When v gained
// composites since prev — tasks appended to a live workflow become
// singleton composites — every new index must be covered by the delta;
// Merge panics otherwise, because the resulting report would silently
// contain zero-valued composites.
func Merge(prev *Report, d *Delta, v *view.View) *Report {
	k := v.N()
	composites := make([]CompositeReport, k)
	covered := copy(composites, prev.Composites)
	for i := range d.Composites {
		ci := d.Composites[i].Index
		if ci < 0 || ci >= k {
			panic(fmt.Sprintf("soundness: merge: delta composite index %d out of range [0,%d)", ci, k))
		}
		composites[ci] = CompositeReport{}
	}
	ownAll(composites)
	for i := range d.Composites {
		composites[d.Composites[i].Index] = d.Composites[i]
	}
	for ci := covered; ci < k; ci++ {
		if composites[ci].ID == "" {
			panic(fmt.Sprintf("soundness: merge: new composite %d not covered by delta", ci))
		}
	}
	return assembleReport(v, composites)
}

// DirtyComposites maps a dirty node set (workflow task indices whose
// adjacency or reachability row changed) to the ascending list of
// composite indices of v that must be revalidated. Composite indices of
// v at or beyond minNew (the composite count before the mutation; pass
// v.N() when no composites were added) are always included: they have no
// previous report to reuse.
func DirtyComposites(v *view.View, dirtyNodes *bitset.Set, minNew int) []int {
	k := v.N()
	marks := bitset.New(k)
	dirtyNodes.ForEach(func(t int) bool {
		marks.Set(v.CompOf(t))
		return true
	})
	for ci := minNew; ci < k; ci++ {
		marks.Set(ci)
	}
	return marks.Members()
}
