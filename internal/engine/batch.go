package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"wolves/internal/core"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// ValidateJob is one unit of ValidateBatch work.
type ValidateJob struct {
	Workflow *workflow.Workflow
	View     *view.View
}

// ValidateResult pairs a job's report with its typed error; exactly one
// of the two is set.
type ValidateResult struct {
	Report *soundness.Report
	Err    *Error
}

// CorrectJob is one unit of CorrectBatch work.
type CorrectJob struct {
	Workflow  *workflow.Workflow
	View      *view.View
	Criterion core.Criterion
	// Options overrides the engine's corrector options for this job
	// (nil means the engine default).
	Options *core.Options
}

// CorrectResult pairs a job's correction with its typed error; exactly
// one of the two is set.
type CorrectResult struct {
	Correction *core.ViewCorrection
	Err        *Error
}

// FanOut runs n independent jobs over min(workers, n) goroutines,
// claiming job indices with an atomic cursor: run(i) executes each job,
// and once ctx fires the unclaimed remainder completes immediately via
// onCanceled(i) instead of running. It is the scheduling core behind
// ValidateBatch/CorrectBatch, exported so sibling subsystems (the run
// store's batch lineage endpoint) share one worker-pool behavior.
func FanOut(ctx context.Context, workers, n int, run func(i int), onCanceled func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					onCanceled(i)
					continue
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// ValidateBatch validates every job over a pool of workers goroutines
// (0 = the engine's Workers()) and returns per-job results in input
// order. Jobs repeating a workflow share its cached oracle; a canceled
// ctx marks the remaining jobs with ErrCanceled instead of abandoning
// them silently. Callers running several batches concurrently split the
// engine width between them so the configured fan-out cap holds across
// the whole request.
func (e *Engine) ValidateBatch(ctx context.Context, jobs []ValidateJob, workers int) []ValidateResult {
	if workers <= 0 {
		workers = e.Workers()
	}
	results := make([]ValidateResult, len(jobs))
	FanOut(ctx, workers, len(jobs),
		func(i int) {
			// Within a batch each job validates sequentially; the batch
			// itself is the parallelism.
			rep, err := e.validateSequential(ctx, jobs[i].Workflow, jobs[i].View)
			if err != nil {
				results[i] = ValidateResult{Err: wrapErr("validate", err)}
				return
			}
			results[i] = ValidateResult{Report: rep}
		},
		func(i int) {
			results[i] = ValidateResult{Err: wrapErr("validate", ctx.Err())}
		})
	return results
}

// validateSequential is Validate without the per-view fan-out (batch
// workers already occupy the pool).
func (e *Engine) validateSequential(ctx context.Context, wf *workflow.Workflow, v *view.View) (*soundness.Report, error) {
	if err := checkView("validate", wf, v); err != nil {
		return nil, err
	}
	return soundness.ValidateViewParallelCtx(ctx, e.Oracle(wf), v, 1)
}

// correctSequential is CorrectWithOracle with the inner validation
// pinned to one worker — a batch job must not multiply the configured
// fan-out cap.
func (e *Engine) correctSequential(ctx context.Context, j CorrectJob) (*core.ViewCorrection, error) {
	ctx, cancel := e.optimalCtx(ctx, j.Criterion)
	defer cancel()
	return core.CorrectViewCtx(ctx, e.Oracle(j.Workflow), j.View, j.Criterion, e.corrOptions(j.Options), 1)
}

// CorrectBatch corrects every job over a pool of workers goroutines
// (0 = the engine's Workers(); see ValidateBatch) and returns per-job
// results in input order. Error handling is per job: one composite
// exceeding the Optimal limit fails only its own job.
func (e *Engine) CorrectBatch(ctx context.Context, jobs []CorrectJob, workers int) []CorrectResult {
	if workers <= 0 {
		workers = e.Workers()
	}
	results := make([]CorrectResult, len(jobs))
	FanOut(ctx, workers, len(jobs),
		func(i int) {
			j := jobs[i]
			if err := checkView("correct", j.Workflow, j.View); err != nil {
				results[i] = CorrectResult{Err: err}
				return
			}
			vc, err := e.correctSequential(ctx, j)
			if err != nil {
				results[i] = CorrectResult{Err: wrapErr("correct", err)}
				return
			}
			results[i] = CorrectResult{Correction: vc}
		},
		func(i int) {
			results[i] = CorrectResult{Err: wrapErr("correct", ctx.Err())}
		})
	return results
}
