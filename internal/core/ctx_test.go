package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wolves/internal/gen"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// unsoundView wraps the generated unsound composite in a view: the
// members form one composite, everything else stays a singleton.
func unsoundView(t *testing.T, wf *workflow.Workflow, members []int) *view.View {
	t.Helper()
	part := make([]int, wf.N())
	inComp := make(map[int]bool, len(members))
	for _, m := range members {
		inComp[m] = true
	}
	next := 1
	for i := 0; i < wf.N(); i++ {
		if inComp[i] {
			part[i] = 0
		} else {
			part[i] = next
			next++
		}
	}
	v, err := view.FromPartition(wf, "unsound", part)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestOptimalCancellation pins the Engine-facing latency contract: a
// 20-member Optimal split (2^20 DP states) must notice a fired context
// and unwind well within 100ms.
func TestOptimalCancellation(t *testing.T) {
	wf, members := gen.UnsoundTask(20, 7)
	o := soundness.NewOracle(wf)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := SplitTaskCtx(ctx, o, members, Optimal, nil)
	elapsed := time.Since(start)
	if err == nil {
		// The box may be fast enough to finish inside the deadline; then
		// the result must be a valid partition and the test is vacuous.
		if res == nil || len(res.Blocks) == 0 {
			t.Fatalf("finished without error but no blocks: %+v", res)
		}
		t.Skip("optimal split finished before the deadline fired")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("canceled split returned a result: %+v", res)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms after the 5ms deadline", elapsed)
	}
}

// TestCorrectViewCancellation checks the pre-canceled fast path and the
// error shape of CorrectViewCtx.
func TestCorrectViewCancellation(t *testing.T) {
	wf, members := gen.UnsoundTask(12, 3)
	o := soundness.NewOracle(wf)
	v := unsoundView(t, wf, members)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CorrectViewCtx(ctx, o, v, Strong, nil, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := CorrectViewCtx(ctx, o, v, Strong, nil, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// A live context corrects normally.
	vc, err := CorrectViewCtx(context.Background(), o, v, Strong, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := soundness.ValidateView(o, vc.Corrected); !rep.Sound {
		t.Fatalf("corrected view unsound: %+v", rep)
	}
}

// TestStrongAuditedCancellation covers ctx firing inside the exhaustive
// auditor / fixpoint phases.
func TestStrongAuditedCancellation(t *testing.T) {
	wf, members := gen.UnsoundTask(18, 11)
	o := soundness.NewOracle(wf)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SplitTaskCtx(ctx, o, members, StrongAudited, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestOptionsExplicitLimits pins the withDefaults contract: zero means
// default, any explicit value — small or negative — sticks.
func TestOptionsExplicitLimits(t *testing.T) {
	eff := (&Options{OptimalLimit: 3}).withDefaults()
	if eff.OptimalLimit != 3 || eff.AuditLimit != 22 {
		t.Fatalf("withDefaults(OptimalLimit:3) = %+v", eff)
	}
	eff = (&Options{OptimalLimit: -1, AuditLimit: -1}).withDefaults()
	if eff.OptimalLimit != -1 || eff.AuditLimit != -1 {
		t.Fatalf("withDefaults(negative) = %+v, want explicit values kept", eff)
	}

	wf, members := gen.UnsoundTask(6, 1)
	o := soundness.NewOracle(wf)
	// A small explicit limit must be honored, not reset to 20 …
	_, err := SplitTaskCtx(context.Background(), o, members, Optimal, &Options{OptimalLimit: 3})
	if !errors.Is(err, ErrOptimalLimit) {
		t.Fatalf("err = %v, want ErrOptimalLimit for limit 3 < 6 members", err)
	}
	// … and a negative limit rejects every composite.
	_, err = SplitTaskCtx(context.Background(), o, members, Optimal, &Options{OptimalLimit: -1})
	if !errors.Is(err, ErrOptimalLimit) {
		t.Fatalf("err = %v, want ErrOptimalLimit for negative limit", err)
	}
	// Within the limit the split succeeds.
	res, err := SplitTaskCtx(context.Background(), o, members, Optimal, &Options{OptimalLimit: 6})
	if err != nil || len(res.Blocks) == 0 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}
