package feedback

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"wolves/internal/core"
	"wolves/internal/repo"
	"wolves/internal/soundness"
)

func newFig1Session(t *testing.T) *Session {
	t.Helper()
	wf, v := repo.Figure1()
	s, err := NewSession(wf, v)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustValidate validates the session's current view.
func mustValidate(t *testing.T, s *Session) *soundness.Report {
	t.Helper()
	rep, err := s.ValidateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSessionLifecycle(t *testing.T) {
	s := newFig1Session(t)
	rep := mustValidate(t, s)
	if rep.Sound {
		t.Fatal("fig1 view starts unsound")
	}
	vc, err := s.CorrectCtx(context.Background(), core.Strong, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vc.CompositesAfter != 8 {
		t.Fatalf("composites = %d", vc.CompositesAfter)
	}
	if !mustValidate(t, s).Sound {
		t.Fatal("view must be sound after correction")
	}
	// User feedback: re-merge the split halves — recreates unsoundness.
	if err := s.MergeTasks("16", "16.1", "16.2"); err != nil {
		t.Fatal(err)
	}
	if mustValidate(t, s).Sound {
		t.Fatal("merged view must be unsound again (demo loop)")
	}
	// Undo the merge.
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if !mustValidate(t, s).Sound {
		t.Fatal("undo must restore the sound view")
	}
	s.Accept()
	if !s.Accepted() {
		t.Fatal("not accepted")
	}
	if _, err := s.CorrectCtx(context.Background(), core.Weak, nil); !errors.Is(err, ErrAccepted) {
		t.Fatalf("mutating accepted session: %v", err)
	}
	if err := s.MergeTasks("x", "13", "14"); !errors.Is(err, ErrAccepted) {
		t.Fatalf("merge after accept: %v", err)
	}
	if err := s.Undo(); !errors.Is(err, ErrAccepted) {
		t.Fatalf("undo after accept: %v", err)
	}
	log := s.Log()
	if len(log) < 6 || log[0].Op != "open" || log[len(log)-1].Op != "accept" {
		t.Fatalf("log = %+v", log)
	}
}

func TestSplitSingleTask(t *testing.T) {
	s := newFig1Session(t)
	res, err := s.SplitTaskCtx(context.Background(), "16", core.Optimal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("blocks = %v", res.Blocks)
	}
	if !mustValidate(t, s).Sound {
		t.Fatal("splitting the only unsound composite must make the view sound")
	}
	if _, err := s.SplitTaskCtx(context.Background(), "ghost", core.Weak, nil); err == nil {
		t.Fatal("unknown composite must error")
	}
}

func TestUndoEmptyHistory(t *testing.T) {
	s := newFig1Session(t)
	if err := s.Undo(); err == nil {
		t.Fatal("undo with no history must error")
	}
}

func TestNewSessionForeignView(t *testing.T) {
	wf, _ := repo.Figure1()
	f3 := repo.Figure3()
	if _, err := NewSession(wf, f3.View); err == nil {
		t.Fatal("foreign view must error")
	}
}

func TestRunScript(t *testing.T) {
	s := newFig1Session(t)
	script := `
# the demo walkthrough
validate
correct strong
merge 16 16.1 16.2
validate
undo
accept
`
	var out bytes.Buffer
	if err := s.RunScript(context.Background(), strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"validate: sound=false",
		"correct(strong-local-optimal): 7 → 8 composites",
		"merge(16): 7 composites",
		"validate: sound=false",
		"undo: 8 composites",
		"accept: sound=true",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("script output missing %q:\n%s", want, got)
		}
	}
}

func TestSessionCompact(t *testing.T) {
	s := newFig1Session(t)
	if _, err := s.CorrectCtx(context.Background(), core.Strong, nil); err != nil {
		t.Fatal(err)
	}
	before := s.Current().N()
	merges, err := s.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Current().N() != before-merges {
		t.Fatalf("merges=%d but composites %d → %d", merges, before, s.Current().N())
	}
	if !mustValidate(t, s).Sound {
		t.Fatal("compacted view must stay sound")
	}
	s.Accept()
	if _, err := s.Compact(0); !errors.Is(err, ErrAccepted) {
		t.Fatalf("compact after accept: %v", err)
	}
}

func TestRunScriptCompact(t *testing.T) {
	s := newFig1Session(t)
	var out bytes.Buffer
	if err := s.RunScript(context.Background(), strings.NewReader("correct strong\ncompact 1\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "compact: 1 merges") {
		t.Fatalf("output = %s", out.String())
	}
	if err := s.RunScript(context.Background(), strings.NewReader("compact zz\n"), &out); err == nil {
		t.Fatal("bad compact arg must error")
	}
}

func TestRunScriptErrors(t *testing.T) {
	cases := []string{
		"bogus",
		"correct",
		"correct sideways",
		"split 16",
		"split ghost weak",
		"merge onlyone x",
		"undo",
	}
	for _, c := range cases {
		s := newFig1Session(t)
		var out bytes.Buffer
		if err := s.RunScript(context.Background(), strings.NewReader(c), &out); err == nil {
			t.Errorf("script %q must fail", c)
		}
	}
	// Errors carry the line number.
	s := newFig1Session(t)
	var out bytes.Buffer
	err := s.RunScript(context.Background(), strings.NewReader("validate\nbogus\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

// TestSessionCanceledContext: every operation that takes a ctx returns
// a canceled context's error instead of panicking, and leaves the
// session as it was.
func TestSessionCanceledContext(t *testing.T) {
	s := newFig1Session(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur, logLen := s.Current(), len(s.Log())
	if rep, err := s.ValidateCtx(ctx); !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("ValidateCtx = %v, %v; want context.Canceled", rep, err)
	}
	if _, err := s.CorrectCtx(ctx, core.Strong, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("CorrectCtx: %v, want context.Canceled", err)
	}
	if _, err := s.SplitTaskCtx(ctx, "16", core.Strong, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SplitTaskCtx: %v, want context.Canceled", err)
	}
	var out bytes.Buffer
	if err := s.RunScript(ctx, strings.NewReader("validate\n"), &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunScript: %v, want context.Canceled", err)
	}
	if s.Current() != cur || len(s.Log()) != logLen {
		t.Fatalf("a canceled operation changed the session: %d → %d events", logLen, len(s.Log()))
	}
}

// countdownCtx is never done but reports cancellation from its
// (left+1)-th Err call on, so a test can cancel an operation at each of
// its polling points in turn.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(left int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(left))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSessionCancelAtEveryPointKeepsState cancels a correction and a
// split at each point where they poll their ctx, the validation of the
// new view included: each call returns the cancellation and leaves the
// current view, the history and the log as they were.
func TestSessionCancelAtEveryPointKeepsState(t *testing.T) {
	ops := map[string]func(*Session, context.Context) error{
		"correct": func(s *Session, ctx context.Context) error {
			_, err := s.CorrectCtx(ctx, core.Strong, nil)
			return err
		},
		"split": func(s *Session, ctx context.Context) error {
			_, err := s.SplitTaskCtx(ctx, "16", core.Strong, nil)
			return err
		},
	}
	for name, op := range ops {
		for left := 0; ; left++ {
			if left > 10000 {
				t.Fatalf("%s: still canceled after %d polls", name, left)
			}
			s := newFig1Session(t)
			cur, logLen := s.Current(), len(s.Log())
			err := op(s, newCountdownCtx(left))
			if err == nil {
				if s.Current() == cur || len(s.history) != 1 {
					t.Fatalf("%s: a completed call did not move the session on", name)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s canceled after %d polls: %v, want context.Canceled", name, left, err)
			}
			if s.Current() != cur || len(s.history) != 0 || len(s.Log()) != logLen {
				t.Fatalf("%s canceled after %d polls changed the session", name, left)
			}
		}
	}
}
