// Package engine implements the long-lived WOLVES service facade: a
// concurrency-safe object that owns a fingerprint-keyed LRU cache of
// soundness oracles and exposes the whole pipeline — validation,
// correction, task splitting, provenance auditing — as context-aware
// methods plus batch entry points.
//
// The free functions of the wolves package build an oracle per workflow
// per call site; a service handling many requests over the same
// workflows pays the closure construction once here and amortizes it
// across every later request (cmd/wolvesd is exactly that service).
// Every method returns structured *Error values whose Code classifies
// the failure, and every method observes ctx: in particular the
// exponential Optimal corrector aborts within milliseconds of
// cancellation.
//
// Beside the stateless pipeline sits the live workflow Registry
// (registry.go): named, versioned workflows mutated in place, whose
// reachability closures are maintained incrementally and whose attached
// views are revalidated over dirty composites only — see the registry
// documentation for versioning, concurrency and eviction semantics.
package engine

import (
	"context"
	"runtime"
	"time"

	"wolves/internal/core"
	"wolves/internal/provenance"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// DefaultCacheSize is the oracle-cache capacity used when WithOracleCache
// is not given.
const DefaultCacheSize = 128

// Engine is the long-lived service facade. The zero value is not usable;
// construct with New. An Engine is safe for concurrent use: the oracle
// cache is internally locked, oracles are concurrency-safe readers, and
// per-request state lives on the stack of each call.
type Engine struct {
	workers        int
	corrOpts       *core.Options
	optimalTimeout time.Duration
	cache          *oracleCache
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithWorkers sets the fan-out width used by parallel validation and the
// batch entry points. n <= 0 (the default) means runtime.GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithOracleCache sets the capacity of the fingerprint-keyed oracle LRU.
// n <= 0 disables caching (every call builds a fresh oracle). The
// default is DefaultCacheSize.
func WithOracleCache(n int) Option {
	return func(e *Engine) { e.cache = newOracleCache(n) }
}

// WithCorrectorOptions sets the default corrector options applied by
// Correct and SplitTask when the caller passes none.
func WithCorrectorOptions(opts *core.Options) Option {
	return func(e *Engine) { e.corrOpts = opts }
}

// WithOptimalTimeout bounds every Optimal correction: when d > 0,
// Correct and SplitTask under core.Optimal run with a deadline of d (in
// addition to whatever deadline the caller's ctx carries) and return an
// ErrCanceled-coded error when it fires. Zero (the default) means no
// engine-imposed bound.
func WithOptimalTimeout(d time.Duration) Option {
	return func(e *Engine) { e.optimalTimeout = d }
}

// New constructs an Engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	if e.cache == nil {
		e.cache = newOracleCache(DefaultCacheSize)
	}
	return e
}

// Workers returns the effective fan-out width.
func (e *Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// CacheStats returns a snapshot of the oracle-cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Oracle returns the cached soundness oracle for wf, building it on the
// first request. Structurally identical workflows (equal fingerprints)
// share one oracle, so a daemon decoding the same workflow JSON per
// request builds the reachability closure exactly once.
func (e *Engine) Oracle(wf *workflow.Workflow) *soundness.Oracle {
	entry := e.cache.get(wf)
	return e.cache.oracleFor(entry)
}

// checkView validates the (wf, v) pair shared by every view method.
func checkView(op string, wf *workflow.Workflow, v *view.View) *Error {
	if wf == nil {
		return errf(ErrBadInput, op, "nil workflow")
	}
	if v == nil {
		return errf(ErrBadInput, op, "nil view")
	}
	if !workflow.Same(v.Workflow(), wf) {
		return errf(ErrWorkflowMismatch, op,
			"view %q belongs to workflow %q, not %q",
			v.Name(), v.Workflow().Name(), wf.Name())
	}
	return nil
}

// Validate checks every composite of v (Proposition 2.1) against wf,
// fanning composites over the engine's workers. A cache hit performs
// zero closure builds.
func (e *Engine) Validate(ctx context.Context, wf *workflow.Workflow, v *view.View) (*soundness.Report, error) {
	if err := checkView("validate", wf, v); err != nil {
		return nil, err
	}
	return e.ValidateWithOracle(ctx, e.Oracle(wf), v)
}

// ValidateWithOracle is Validate against a caller-held oracle: a live
// workflow's incrementally maintained one, or one from Oracle reused
// across many views of the same workflow.
func (e *Engine) ValidateWithOracle(ctx context.Context, o *soundness.Oracle, v *view.View) (*soundness.Report, error) {
	if o == nil || v == nil {
		return nil, errf(ErrBadInput, "validate", "nil oracle or view")
	}
	if !workflow.Same(v.Workflow(), o.Workflow()) {
		return nil, errf(ErrWorkflowMismatch, "validate",
			"view %q belongs to a different workflow", v.Name())
	}
	rep, err := soundness.ValidateViewParallelCtx(ctx, o, v, e.workers)
	if err != nil {
		return nil, wrapErr("validate", err)
	}
	return rep, nil
}

// optimalCtx applies the engine's Optimal timeout when crit is Optimal.
func (e *Engine) optimalCtx(ctx context.Context, crit core.Criterion) (context.Context, context.CancelFunc) {
	if crit == core.Optimal && e.optimalTimeout > 0 {
		return context.WithTimeout(ctx, e.optimalTimeout)
	}
	return ctx, func() {}
}

// corrOptions resolves per-call options against the engine default.
func (e *Engine) corrOptions(opts *core.Options) *core.Options {
	if opts != nil {
		return opts
	}
	return e.corrOpts
}

// Correct repairs every unsound composite of v under crit and returns
// the provably sound result. Under core.Optimal the call is bounded by
// WithOptimalTimeout (when set) and aborts with an ErrCanceled-coded
// error within ~100ms of ctx firing.
func (e *Engine) Correct(ctx context.Context, wf *workflow.Workflow, v *view.View, crit core.Criterion) (*core.ViewCorrection, error) {
	if err := checkView("correct", wf, v); err != nil {
		return nil, err
	}
	return e.CorrectWithOracle(ctx, e.Oracle(wf), v, crit, nil)
}

// CorrectWithOracle is Correct against a caller-held oracle, with an
// optional per-call options override (nil falls back to the engine's
// WithCorrectorOptions, then to the package defaults).
func (e *Engine) CorrectWithOracle(ctx context.Context, o *soundness.Oracle, v *view.View, crit core.Criterion, opts *core.Options) (*core.ViewCorrection, error) {
	if o == nil || v == nil {
		return nil, errf(ErrBadInput, "correct", "nil oracle or view")
	}
	ctx, cancel := e.optimalCtx(ctx, crit)
	defer cancel()
	vc, err := core.CorrectViewCtx(ctx, o, v, crit, e.corrOptions(opts), e.workers)
	if err != nil {
		return nil, wrapErr("correct", err)
	}
	return vc, nil
}

// SplitTask splits one composite's member set into sound blocks under
// crit. Members are workflow task indices, as in core.SplitTaskCtx.
func (e *Engine) SplitTask(ctx context.Context, wf *workflow.Workflow, members []int, crit core.Criterion) (*core.Result, error) {
	if wf == nil {
		return nil, errf(ErrBadInput, "split", "nil workflow")
	}
	for _, m := range members {
		if m < 0 || m >= wf.N() {
			return nil, errf(ErrUnknownTask, "split", "task index %d out of range [0,%d)", m, wf.N())
		}
	}
	return e.SplitWithOracle(ctx, e.Oracle(wf), members, crit, nil)
}

// SplitWithOracle is SplitTask against a caller-held oracle, with an
// optional per-call options override.
func (e *Engine) SplitWithOracle(ctx context.Context, o *soundness.Oracle, members []int, crit core.Criterion, opts *core.Options) (*core.Result, error) {
	if o == nil {
		return nil, errf(ErrBadInput, "split", "nil oracle")
	}
	ctx, cancel := e.optimalCtx(ctx, crit)
	defer cancel()
	res, err := core.SplitTaskCtx(ctx, o, members, crit, e.corrOptions(opts))
	if err != nil {
		return nil, wrapErr("split", err)
	}
	return res, nil
}

// Audit quantifies the provenance error v induces (false lineage pairs,
// wrong queries, precision) from label indexes built for the call; it
// leaves nothing in the oracle cache.
func (e *Engine) Audit(ctx context.Context, wf *workflow.Workflow, v *view.View) (*provenance.ViewAudit, error) {
	if err := checkView("audit", wf, v); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapErr("audit", err)
	}
	return provenance.Audit(v), nil
}
