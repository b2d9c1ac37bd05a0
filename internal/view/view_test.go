package view

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wolves/internal/workflow"
)

// wfDiamond: a→b, a→c, b→d, c→d.
func wfDiamond(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := workflow.NewBuilder("diamond").
		AddTask("a").AddTask("b").AddTask("c").AddTask("d").
		AddEdge("a", "b").AddEdge("a", "c").AddEdge("b", "d").AddEdge("c", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuilderPartition(t *testing.T) {
	w := wfDiamond(t)
	v, err := NewBuilder(w, "v").
		Assign("top", "a").
		Assign("mid", "b", "c").
		Assign("bot", "d").
		Named("mid", "Middle Stage").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 3 {
		t.Fatalf("N = %d", v.N())
	}
	c, ok := v.CompositeByID("mid")
	if !ok || c.Name != "Middle Stage" || c.Size() != 2 {
		t.Fatalf("mid = %+v", c)
	}
	if v.CompOf(w.MustIndex("b")) != 1 || v.CompOf(w.MustIndex("d")) != 2 {
		t.Fatal("CompOf wrong")
	}
	if got := v.MemberIDs(1); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("MemberIDs = %v", got)
	}
	if got := v.CompositeIDs(); !reflect.DeepEqual(got, []string{"top", "mid", "bot"}) {
		t.Fatalf("CompositeIDs = %v", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	w := wfDiamond(t)
	if _, err := NewBuilder(w, "v").Assign("x", "a", "b", "c").Build(); !errors.Is(err, ErrNotPartition) {
		t.Fatalf("missing task err = %v", err)
	}
	if _, err := NewBuilder(w, "v").Assign("x", "a", "a", "b", "c", "d").Build(); !errors.Is(err, ErrNotPartition) {
		t.Fatalf("dup task err = %v", err)
	}
	if _, err := NewBuilder(w, "v").Assign("x", "a", "ghost").Build(); !errors.Is(err, workflow.ErrUnknownTask) {
		t.Fatalf("unknown task err = %v", err)
	}
}

func TestFromAssignmentsAndPartition(t *testing.T) {
	w := wfDiamond(t)
	v, err := FromAssignments(w, "v", map[string][]string{
		"g1": {"a", "b"},
		"g2": {"c", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 2 {
		t.Fatalf("N = %d", v.N())
	}
	v2, err := FromPartition(w, "p", []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v2.N() != 2 || v2.CompOf(3) != 1 {
		t.Fatal("FromPartition wrong")
	}
	if _, err := FromPartition(w, "p", []int{0, 0, 2, 2}); err == nil {
		t.Fatal("gap in block ids must error")
	}
	if _, err := FromPartition(w, "p", []int{0, 0}); err == nil {
		t.Fatal("short partition must error")
	}
}

func TestAtomicView(t *testing.T) {
	w := wfDiamond(t)
	v := Atomic(w)
	if v.N() != w.N() {
		t.Fatalf("atomic N = %d", v.N())
	}
	g := v.Graph()
	if g.M() != w.M() {
		t.Fatal("atomic view graph must equal workflow graph")
	}
}

func TestViewGraphQuotient(t *testing.T) {
	w := wfDiamond(t)
	v, _ := FromAssignments(w, "v", map[string][]string{
		"g1": {"a"}, "g2": {"b", "c"}, "g3": {"d"},
	})
	g := v.Graph()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("quotient N=%d M=%d", g.N(), g.M())
	}
	i1, _ := v.CompIndex("g1")
	i2, _ := v.CompIndex("g2")
	i3, _ := v.CompIndex("g3")
	if !g.HasEdge(i1, i2) || !g.HasEdge(i2, i3) {
		t.Fatal("quotient edges wrong")
	}
}

func TestInOutSets(t *testing.T) {
	// Paper Definition 2.2 semantics on the diamond with {b,c} composite:
	// both b and c have external pred a and external succ d.
	w := wfDiamond(t)
	v, _ := FromAssignments(w, "v", map[string][]string{
		"g1": {"a"}, "g2": {"b", "c"}, "g3": {"d"},
	})
	mid, _ := v.CompIndex("g2")
	in := v.In(mid)
	out := v.Out(mid)
	if len(in) != 2 || len(out) != 2 {
		t.Fatalf("in=%v out=%v", in, out)
	}
	// Source composite has empty in; sink composite empty out.
	top, _ := v.CompIndex("g1")
	bot, _ := v.CompIndex("g3")
	if len(v.In(top)) != 0 || len(v.Out(top)) != 1 {
		t.Fatalf("top in/out = %v/%v", v.In(top), v.Out(top))
	}
	if len(v.In(bot)) != 1 || len(v.Out(bot)) != 0 {
		t.Fatalf("bot in/out = %v/%v", v.In(bot), v.Out(bot))
	}
}

func TestMergeComposites(t *testing.T) {
	w := wfDiamond(t)
	v, _ := FromAssignments(w, "v", map[string][]string{
		"g1": {"a"}, "g2": {"b"}, "g3": {"c"}, "g4": {"d"},
	})
	m, err := v.MergeComposites("mid", "g2", "g3")
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	c, ok := m.CompositeByID("mid")
	if !ok || c.Size() != 2 {
		t.Fatalf("merged = %+v", c)
	}
	// Original view untouched.
	if v.N() != 4 {
		t.Fatal("merge must not mutate the source view")
	}
	if _, err := v.MergeComposites("x", "g2"); err == nil {
		t.Fatal("single-composite merge must error")
	}
	if _, err := v.MergeComposites("x", "g2", "ghost"); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.MergeComposites("g1", "g2", "g3"); !errors.Is(err, ErrDuplicateComp) {
		t.Fatalf("existing id err = %v", err)
	}
	// Reusing one of the merged ids is allowed.
	if _, err := v.MergeComposites("g2", "g2", "g3"); err != nil {
		t.Fatalf("reusing merged id: %v", err)
	}
}

func TestReplaceComposite(t *testing.T) {
	w := wfDiamond(t)
	v, _ := FromAssignments(w, "v", map[string][]string{
		"g1": {"a"}, "g2": {"b", "c"}, "g3": {"d"},
	})
	b, c := w.MustIndex("b"), w.MustIndex("c")
	split, err := v.ReplaceComposite("g2", [][]int{{b}, {c}})
	if err != nil {
		t.Fatal(err)
	}
	if split.N() != 4 {
		t.Fatalf("N = %d", split.N())
	}
	if _, ok := split.CompositeByID("g2.1"); !ok {
		t.Fatal("split ids wrong")
	}
	// Single block keeps the id.
	same, err := v.ReplaceComposite("g2", [][]int{{b, c}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := same.CompositeByID("g2"); !ok {
		t.Fatal("single-block split must keep id")
	}

	if _, err := v.ReplaceComposite("ghost", [][]int{{b}}); !errors.Is(err, ErrUnknownComp) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.ReplaceComposite("g2", [][]int{{b}}); !errors.Is(err, ErrNotPartition) {
		t.Fatalf("partial split err = %v", err)
	}
	if _, err := v.ReplaceComposite("g2", [][]int{{b}, {b, c}}); !errors.Is(err, ErrNotPartition) {
		t.Fatalf("dup split err = %v", err)
	}
	a := w.MustIndex("a")
	if _, err := v.ReplaceComposite("g2", [][]int{{a, b, c}}); err == nil {
		t.Fatal("foreign task must error")
	}
	if _, err := v.ReplaceComposite("g2", [][]int{{b, c}, {}}); !errors.Is(err, ErrEmptyComp) {
		t.Fatalf("empty block err = %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := wfDiamond(t)
	v, _ := NewBuilder(w, "jv").
		Assign("g1", "a").Assign("g2", "b", "c").Assign("g3", "d").
		Named("g2", "Middle").Build()
	var buf bytes.Buffer
	if err := v.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := DecodeJSON(w, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if v2.N() != 3 || v2.Name() != "jv" {
		t.Fatalf("round trip: %v", v2)
	}
	c, _ := v2.CompositeByID("g2")
	if c.Name != "Middle" {
		t.Fatal("composite name lost")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	w := wfDiamond(t)
	cases := []string{
		`{`,
		`{"name":"v","workflow":"other","composites":[{"id":"x","members":["a","b","c","d"]}]}`,
		`{"name":"v","composites":[{"id":"x","members":["a"]}]}`,
		`{"name":"v","bogus":true,"composites":[{"id":"x","members":["a","b","c","d"]}]}`,
	}
	for i, c := range cases {
		if _, err := DecodeJSON(w, strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDescribeAndString(t *testing.T) {
	w := wfDiamond(t)
	v, _ := FromAssignments(w, "v", map[string][]string{"g1": {"a", "b", "c", "d"}})
	if s := v.String(); !strings.Contains(s, "1 composites over 4 tasks") {
		t.Fatalf("String = %q", s)
	}
	if d := v.Describe(); !strings.Contains(d, "g1 = {a, b, c, d}") {
		t.Fatalf("Describe = %q", d)
	}
}

func TestExtendSingletons(t *testing.T) {
	wf, err := workflow.NewBuilder("live").
		AddTask("a").AddTask("b").AddTask("c").
		Chain("a", "b", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := FromAssignments(wf, "v", map[string][]string{
		"AB": {"a", "b"}, "C": {"c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if same, err := v.ExtendSingletons(); err != nil || same != v {
		t.Fatalf("covering view must return itself: %v, %v", same, err)
	}

	if _, err := wf.ExtendTasks([]workflow.Task{{ID: "d"}, {ID: "e"}}); err != nil {
		t.Fatal(err)
	}
	wf.Graph().AddNodes(2)
	nv, err := v.ExtendSingletons()
	if err != nil {
		t.Fatal(err)
	}
	if nv.N() != 4 {
		t.Fatalf("extended view has %d composites, want 4", nv.N())
	}
	for i, id := range []string{"AB", "C", "d", "e"} {
		if nv.Composite(i).ID != id {
			t.Fatalf("composite %d = %q, want %q (indices must be stable)", i, nv.Composite(i).ID, id)
		}
	}
	if ci := nv.CompOf(3); nv.Composite(ci).ID != "d" {
		t.Fatalf("task d assigned to composite %q", nv.Composite(ci).ID)
	}
	// The original view is untouched.
	if v.N() != 2 {
		t.Fatalf("ExtendSingletons mutated the receiver: %d composites", v.N())
	}

	// ID collision: a new task named like an existing composite.
	if _, err := wf.ExtendTasks([]workflow.Task{{ID: "AB"}}); err != nil {
		t.Fatal(err)
	}
	wf.Graph().AddNodes(1)
	if _, err := nv.ExtendSingletons(); !errors.Is(err, ErrDuplicateComp) {
		t.Fatalf("composite-ID collision accepted: %v", err)
	}
}

// TestBuildErrorPrecedence pins which failure Build reports when a view
// has several, with the exact message: per composite in Assign order an
// empty composite, then each member in Assign order unknown or assigned
// twice; then a task left unassigned. The JSON decoder is pinned to
// Build, so this is its precedence too.
func TestBuildErrorPrecedence(t *testing.T) {
	w := wfDiamond(t)
	for _, c := range []struct {
		build func(*Builder) *Builder
		want  string
	}{
		{func(b *Builder) *Builder { return b.Assign("x", "a", "a", "ghost") },
			`view: composites do not partition the workflow tasks: task "a" assigned twice`},
		{func(b *Builder) *Builder { return b.Assign("x", "ghost", "a", "a") },
			`view: composite "x": workflow: unknown task id: task "ghost"`},
		{func(b *Builder) *Builder { return b.Assign("x", "d", "c").Assign("y").Assign("z", "ghost") },
			`view: empty composite: "y"`},
		{func(b *Builder) *Builder { return b.Assign("x", "d").Assign("y", "ghost").Assign("x", "d") },
			`view: composites do not partition the workflow tasks: task "d" assigned twice`},
		{func(b *Builder) *Builder { return b.Assign("x", "d", "a") },
			`view: composites do not partition the workflow tasks: task "b" unassigned`},
	} {
		_, err := c.build(NewBuilder(w, "v")).Build()
		if err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %s", err, c.want)
		}
	}
}
