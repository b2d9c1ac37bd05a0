package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"wolves/internal/core"
	"wolves/internal/gen"
	"wolves/internal/repo"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

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

// TestValidateCacheHit pins the acceptance criterion: a repeated
// workflow hits the oracle cache and performs zero closure builds.
func TestValidateCacheHit(t *testing.T) {
	e := New()
	wf, v := repo.Figure1()
	ctx := context.Background()

	rep1, err := e.Validate(ctx, wf, v)
	if err != nil {
		t.Fatal(err)
	}
	s := e.CacheStats()
	if s.Builds != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first validate: %+v", s)
	}

	rep2, err := e.Validate(ctx, wf, v)
	if err != nil {
		t.Fatal(err)
	}
	s = e.CacheStats()
	if s.Builds != 1 {
		t.Fatalf("cache hit must build zero closures, stats %+v", s)
	}
	if s.Hits != 1 {
		t.Fatalf("expected one hit, stats %+v", s)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatal("cached oracle must produce an identical report")
	}

	// A structurally identical workflow decoded independently (fresh
	// pointer, equal fingerprint) also hits.
	wf2, v2 := repo.Figure1()
	if wf2 == wf {
		t.Fatal("repo.Figure1 must build fresh values for this test")
	}
	rep3, err := e.Validate(ctx, wf2, v2)
	if err != nil {
		t.Fatal(err)
	}
	s = e.CacheStats()
	if s.Builds != 1 || s.Hits != 2 {
		t.Fatalf("structural twin must hit, stats %+v", s)
	}
	if !reflect.DeepEqual(rep1, rep3) {
		t.Fatal("structural twin must produce an identical report")
	}
}

// TestOptimalCancelUnder100ms pins the acceptance criterion: Correct
// under Optimal on a 20-member composite returns an ErrCanceled-coded
// error within ~100ms of ctx cancellation.
func TestOptimalCancelUnder100ms(t *testing.T) {
	wf, members := gen.UnsoundTask(20, 7)
	v := unsoundView(t, wf, members)
	e := New()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()

	_, err := e.Correct(ctx, wf, v, core.Optimal)
	late := time.Since(deadline)
	if err == nil {
		t.Skip("optimal correction finished before the deadline fired")
	}
	var ee *Error
	if !errors.As(err, &ee) || ee.Code != ErrCanceled {
		t.Fatalf("err = %v, want *Error with Code ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if late > 100*time.Millisecond {
		t.Fatalf("returned %v after the deadline, want < 100ms", late)
	}
}

// TestWithOptimalTimeout verifies the engine-imposed Optimal bound.
func TestWithOptimalTimeout(t *testing.T) {
	wf, members := gen.UnsoundTask(20, 7)
	v := unsoundView(t, wf, members)
	e := New(WithOptimalTimeout(5 * time.Millisecond))
	_, err := e.Correct(context.Background(), wf, v, core.Optimal)
	if err == nil {
		t.Skip("optimal correction finished inside the engine timeout")
	}
	var ee *Error
	if !errors.As(err, &ee) || ee.Code != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled code", err)
	}
	// The same engine corrects fine under a polynomial criterion — the
	// timeout only applies to Optimal.
	vc, err := e.Correct(context.Background(), wf, v, core.Strong)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Validate(context.Background(), wf, vc.Corrected)
	if err != nil || !rep.Sound {
		t.Fatalf("corrected view: rep=%+v err=%v", rep, err)
	}
}

// TestErrorCodes exercises the typed-error classification.
func TestErrorCodes(t *testing.T) {
	e := New()
	ctx := context.Background()
	wf, v := repo.Figure1()
	f3 := repo.Figure3()

	if _, err := e.Validate(ctx, nil, v); code(err) != ErrBadInput {
		t.Fatalf("nil workflow: %v", err)
	}
	if _, err := e.Validate(ctx, wf, nil); code(err) != ErrBadInput {
		t.Fatalf("nil view: %v", err)
	}
	if _, err := e.Validate(ctx, wf, f3.View); code(err) != ErrWorkflowMismatch {
		t.Fatalf("foreign view: %v", err)
	}
	if _, err := e.SplitTask(ctx, wf, []int{0, 99}, core.Weak); code(err) != ErrUnknownTask {
		t.Fatalf("bad index: %v", err)
	}

	bigWF, members := gen.UnsoundTask(25, 1)
	if _, err := e.SplitTask(ctx, bigWF, members, core.Optimal); code(err) != ErrOptimalLimit {
		t.Fatalf("over limit: %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Correct(canceled, wf, v, core.Strong); code(err) != ErrCanceled {
		t.Fatalf("canceled: %v", err)
	}
}

func code(err error) Code {
	var ee *Error
	if errors.As(err, &ee) {
		return ee.Code
	}
	return ""
}

// TestBatchAPIs runs mixed batches and checks per-job isolation.
func TestBatchAPIs(t *testing.T) {
	e := New(WithWorkers(4))
	ctx := context.Background()
	wf1, v1 := repo.Figure1()
	f3 := repo.Figure3()

	vjobs := []ValidateJob{
		{Workflow: wf1, View: v1},
		{Workflow: f3.Workflow, View: f3.View},
		{Workflow: wf1, View: f3.View}, // mismatched on purpose
		{Workflow: wf1, View: v1},
	}
	vres := e.ValidateBatch(ctx, vjobs, 0)
	if len(vres) != 4 {
		t.Fatalf("got %d results", len(vres))
	}
	if vres[0].Err != nil || vres[0].Report.Sound {
		t.Fatalf("job 0: %+v", vres[0])
	}
	if vres[1].Err != nil || vres[1].Report.Sound {
		t.Fatalf("job 1: %+v", vres[1])
	}
	if vres[2].Err == nil || vres[2].Err.Code != ErrWorkflowMismatch {
		t.Fatalf("job 2 must fail alone: %+v", vres[2])
	}
	if vres[3].Err != nil {
		t.Fatalf("job 3: %+v", vres[3])
	}

	// Correction batch: the over-limit Optimal job fails, the rest repair.
	bigWF, members := gen.UnsoundTask(25, 1)
	bigView := unsoundView(t, bigWF, members)
	cjobs := []CorrectJob{
		{Workflow: wf1, View: v1, Criterion: core.Strong},
		{Workflow: bigWF, View: bigView, Criterion: core.Optimal},
		{Workflow: f3.Workflow, View: f3.View, Criterion: core.Weak},
	}
	cres := e.CorrectBatch(ctx, cjobs, 0)
	if cres[0].Err != nil || cres[0].Correction == nil {
		t.Fatalf("job 0: %+v", cres[0])
	}
	if cres[1].Err == nil || cres[1].Err.Code != ErrOptimalLimit {
		t.Fatalf("job 1 must hit the optimal limit: %+v", cres[1])
	}
	if cres[2].Err != nil || cres[2].Correction == nil {
		t.Fatalf("job 2: %+v", cres[2])
	}
	rep, err := e.Validate(ctx, wf1, cres[0].Correction.Corrected)
	if err != nil || !rep.Sound {
		t.Fatalf("corrected job 0: rep=%+v err=%v", rep, err)
	}

	// A canceled context fails the whole batch with typed errors, not
	// silence.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for i, r := range e.ValidateBatch(canceled, vjobs, 0) {
		if r.Err == nil || r.Err.Code != ErrCanceled {
			t.Fatalf("canceled batch job %d: %+v", i, r)
		}
	}
}

// TestBatchMatchesSequential: batch results must be byte-identical to
// the one-at-a-time path.
func TestBatchMatchesSequential(t *testing.T) {
	e := New(WithWorkers(8))
	ctx := context.Background()
	var jobs []ValidateJob
	var want []*soundness.Report
	for _, entry := range repo.Catalog() {
		for _, vs := range entry.Views {
			jobs = append(jobs, ValidateJob{Workflow: entry.Workflow, View: vs.View})
			rep, err := e.Validate(ctx, entry.Workflow, vs.View)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, rep)
		}
	}
	got := e.ValidateBatch(ctx, jobs, 0)
	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("job %d: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(got[i].Report, want[i]) {
			t.Fatalf("job %d: batch report differs from sequential", i)
		}
	}
}

// TestCacheEviction checks LRU behavior and the disabled-cache mode.
func TestCacheEviction(t *testing.T) {
	e := New(WithOracleCache(2))
	ctx := context.Background()
	wfs := make([]*workflow.Workflow, 3)
	for i := range wfs {
		wfs[i] = gen.Layered(gen.LayeredConfig{Tasks: 9, Layers: 3, EdgeProb: 0.5, Seed: int64(i + 1)})
	}
	for _, wf := range wfs {
		if _, err := e.Validate(ctx, wf, view.Atomic(wf)); err != nil {
			t.Fatal(err)
		}
	}
	s := e.CacheStats()
	if s.Size != 2 || s.Evictions != 1 || s.Builds != 3 {
		t.Fatalf("after 3 distinct workflows through capacity 2: %+v", s)
	}
	// Re-validating the evicted (oldest) workflow rebuilds.
	if _, err := e.Validate(ctx, wfs[0], view.Atomic(wfs[0])); err != nil {
		t.Fatal(err)
	}
	if s = e.CacheStats(); s.Builds != 4 {
		t.Fatalf("evicted workflow must rebuild: %+v", s)
	}

	// Disabled cache: every call builds.
	e2 := New(WithOracleCache(0))
	for i := 0; i < 2; i++ {
		if _, err := e2.Validate(ctx, wfs[0], view.Atomic(wfs[0])); err != nil {
			t.Fatal(err)
		}
	}
	if s = e2.CacheStats(); s.Builds != 2 || s.Hits != 0 {
		t.Fatalf("disabled cache: %+v", s)
	}
}

// TestConcurrentValidate hammers one engine from many goroutines; run
// under -race this doubles as the concurrency-safety proof. The closure
// must still be built exactly once.
func TestConcurrentValidate(t *testing.T) {
	e := New()
	wf, v := repo.Figure1()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := e.Validate(context.Background(), wf, v)
			if err != nil {
				errs <- err
				return
			}
			if rep.Sound {
				errs <- errors.New("figure 1 view must be unsound")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Builds != 1 {
		t.Fatalf("concurrent validates must share one build: %+v", s)
	}
}

// TestAudit smoke-tests the provenance audit through the engine.
func TestAudit(t *testing.T) {
	e := New()
	wf, v := repo.Figure1()
	a, err := e.Audit(context.Background(), wf, v)
	if err != nil {
		t.Fatal(err)
	}
	if a.FalsePairs == 0 || a.Precision >= 1.0 {
		t.Fatalf("figure 1 view must induce provenance error: %+v", a)
	}
	if a.MissingPairs != 0 {
		t.Fatalf("quotient views never miss pairs: %+v", a)
	}
}
