package feedback

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"wolves/internal/core"
	"wolves/internal/repo"
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

func TestSessionLifecycle(t *testing.T) {
	s := newFig1Session(t)
	rep := s.ValidateCtx(context.Background())
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
	if !s.ValidateCtx(context.Background()).Sound {
		t.Fatal("view must be sound after correction")
	}
	// User feedback: re-merge the split halves — recreates unsoundness.
	if err := s.MergeTasks("16", "16.1", "16.2"); err != nil {
		t.Fatal(err)
	}
	if s.ValidateCtx(context.Background()).Sound {
		t.Fatal("merged view must be unsound again (demo loop)")
	}
	// Undo the merge.
	if err := s.Undo(); err != nil {
		t.Fatal(err)
	}
	if !s.ValidateCtx(context.Background()).Sound {
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
	if !s.ValidateCtx(context.Background()).Sound {
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
	if !s.ValidateCtx(context.Background()).Sound {
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
