package core

import (
	"context"
	"fmt"
	"time"

	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TaskCorrection records how one unsound composite was repaired.
type TaskCorrection struct {
	CompositeID string
	Before      int // atomic tasks in the composite
	After       int // sound blocks it was split into
	Result      *Result
}

// ViewCorrection is the outcome of correcting a whole view.
type ViewCorrection struct {
	Criterion Criterion
	// Corrected is the repaired, provably sound view.
	Corrected *view.View
	// Tasks lists the per-composite corrections, in composite order.
	Tasks []TaskCorrection
	// CompositesBefore/After count view composites before and after.
	CompositesBefore int
	CompositesAfter  int
	Elapsed          time.Duration
}

// CorrectViewCtx splits every unsound composite of v under the chosen
// criterion and returns the repaired view. Because a block's soundness
// depends only on its member set, repairing one composite never breaks
// another, and the result is sound by construction (verified by the
// caller-facing report).
//
// The initial validation fans composites over workers goroutines (0 =
// GOMAXPROCS, 1 = sequential); callers that already occupy a worker pool
// — the Engine's batch entry points — pass 1 so a configured fan-out cap
// is not multiplied per job. Cancellation is cooperative: the initial
// validation and every per-composite split observe ctx, so a fired
// context aborts the repair promptly — even mid-way through an
// exponential Optimal split — returning an error that wraps ErrCanceled.
func CorrectViewCtx(ctx context.Context, o *soundness.Oracle, v *view.View, crit Criterion, opts *Options, workers int) (*ViewCorrection, error) {
	if !workflow.Same(v.Workflow(), o.Workflow()) {
		return nil, fmt.Errorf("core: view %q belongs to a different workflow", v.Name())
	}
	start := time.Now()
	rep, err := soundness.ValidateViewParallelCtx(ctx, o, v, workers)
	if err != nil {
		return nil, canceledErr(ctx)
	}
	vc := &ViewCorrection{Criterion: crit, CompositesBefore: v.N()}
	splits := make([]view.Split, 0, len(rep.Unsound))
	for _, ci := range rep.Unsound {
		comp := v.Composite(ci)
		res, err := SplitTaskCtx(ctx, o, comp.Members(), crit, opts)
		if err != nil {
			return nil, fmt.Errorf("core: splitting composite %q: %w", comp.ID, err)
		}
		splits = append(splits, view.Split{ID: comp.ID, Blocks: res.Blocks})
		vc.Tasks = append(vc.Tasks, TaskCorrection{
			CompositeID: comp.ID,
			Before:      comp.Size(),
			After:       len(res.Blocks),
			Result:      res,
		})
	}
	corrected, err := v.ReplaceComposites(splits...)
	if err != nil {
		return nil, fmt.Errorf("core: applying the splits: %w", err)
	}
	vc.Corrected = corrected
	vc.CompositesAfter = corrected.N()
	vc.Elapsed = time.Since(start)
	return vc, nil
}
