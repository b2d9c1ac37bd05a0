package workflow

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func buildLinear(t *testing.T, ids ...string) *Workflow {
	t.Helper()
	b := NewBuilder("linear")
	for _, id := range ids {
		b.AddTask(id)
	}
	b.Chain(ids...)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuilderHappyPath(t *testing.T) {
	w, err := NewBuilder("wf").
		AddTask("a", WithName("Select"), WithKind("source")).
		AddTask("b").
		AddTask("c").
		AddEdge("a", "b").
		AddEdge("b", "c").
		AddEdge("a", "c").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != 3 || w.M() != 3 {
		t.Fatalf("N=%d M=%d", w.N(), w.M())
	}
	if w.Task(0).Name != "Select" || w.Task(0).Kind != "source" {
		t.Fatalf("task options lost: %+v", w.Task(0))
	}
	if w.Task(1).Name != "b" {
		t.Fatal("name should default to id")
	}
	if i, ok := w.Index("c"); !ok || i != 2 {
		t.Fatalf("Index(c) = %d, %v", i, ok)
	}
	if _, ok := w.Index("zzz"); ok {
		t.Fatal("unknown index lookup must fail")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Build(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty build err = %v", err)
	}
	_, err := NewBuilder("x").AddTask("a").AddTask("a").Build()
	if !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("dup err = %v", err)
	}
	_, err = NewBuilder("x").AddTask("a").AddEdge("a", "ghost").Build()
	if !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown edge target err = %v", err)
	}
	_, err = NewBuilder("x").AddTask("").Build()
	if err == nil {
		t.Fatal("empty id must error")
	}
	_, err = NewBuilder("x").AddTask("a").AddEdge("a", "a").Build()
	if err == nil {
		t.Fatal("self edge must error")
	}
}

// TestBuildErrorPrecedence pins which failure Build reports, and its
// exact message, when a specification has several: an empty or repeated
// task ID (first in AddTask order, wherever AddEdge calls fall), then
// no tasks, then an unknown source, unknown target or self-dependency
// (first in AddEdge order, source before target), then a cycle.
func TestBuildErrorPrecedence(t *testing.T) {
	for _, c := range []struct {
		build func(*Builder) *Builder
		want  string
	}{
		{func(b *Builder) *Builder { return b.AddTask("a").AddTask("") },
			`workflow: empty task id`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddTask("b").AddTask("a") },
			`workflow: duplicate task id: "a"`},
		{func(b *Builder) *Builder { return b },
			`workflow: no tasks`},
		{func(b *Builder) *Builder { return b.AddEdge("x", "y") },
			`workflow: no tasks`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddEdge("x", "y") },
			`workflow: unknown task id: edge source "x"`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddEdge("a", "y") },
			`workflow: unknown task id: edge target "y"`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddEdge("a", "a") },
			`workflow: edge "a"→"a": self-dependency`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddTask("a").AddEdge("a", "ghost") },
			`workflow: duplicate task id: "a"`},
		{func(b *Builder) *Builder { return b.AddEdge("a", "ghost").AddTask("a").AddTask("a") },
			`workflow: duplicate task id: "a"`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddTask("").AddTask("a") },
			`workflow: empty task id`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddTask("a").AddTask("") },
			`workflow: duplicate task id: "a"`},
		{func(b *Builder) *Builder { return b.AddTask("", WithName("n")).AddEdge("x", "y") },
			`workflow: empty task id`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddEdge("a", "a").AddEdge("x", "a") },
			`workflow: edge "a"→"a": self-dependency`},
		{func(b *Builder) *Builder { return b.AddTask("a").AddEdge("x", "a").AddEdge("a", "a") },
			`workflow: unknown task id: edge source "x"`},
		{func(b *Builder) *Builder {
			return b.AddTask("a").AddTask("b").AddEdge("a", "b").AddEdge("b", "a").AddEdge("a", "a")
		}, `workflow: edge "a"→"a": self-dependency`},
		{func(b *Builder) *Builder {
			return b.AddTask("a").AddTask("b").AddEdge("a", "b").AddEdge("b", "a").AddEdge("a", "ghost")
		}, `workflow: unknown task id: edge target "ghost"`},
		{func(b *Builder) *Builder {
			return b.AddTask("x").AddTask("a").AddTask("b").AddTask("c").AddTask("d").
				AddEdge("c", "a").AddEdge("x", "a").AddEdge("a", "b").AddEdge("b", "c").AddEdge("c", "d").AddEdge("a", "b")
		}, `workflow "w": dag: graph contains a cycle (cycle: a→b→c)`},
		{func(b *Builder) *Builder {
			return b.AddTask("p").AddTask("q").AddTask("r").AddTask("s").
				AddEdge("s", "r").AddEdge("r", "q").AddEdge("q", "s").AddEdge("p", "q")
		}, `workflow "w": dag: graph contains a cycle (cycle: q→r→s)`},
	} {
		_, err := c.build(NewBuilder("w")).Build()
		if err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %s", err, c.want)
		}
	}
}

func TestBuilderCycleDiagnostic(t *testing.T) {
	_, err := NewBuilder("cyc").
		AddTask("a").AddTask("b").AddTask("c").
		Chain("a", "b", "c").AddEdge("c", "a").
		Build()
	if err == nil {
		t.Fatal("cycle must error")
	}
	if !strings.Contains(err.Error(), "a→b→c") {
		t.Fatalf("cycle diagnostic missing from %q", err)
	}
}

func TestDuplicateEdgesCollapse(t *testing.T) {
	w, err := NewBuilder("d").AddTask("a").AddTask("b").
		AddEdge("a", "b").AddEdge("a", "b").Build()
	if err != nil {
		t.Fatal(err)
	}
	if w.M() != 1 {
		t.Fatalf("M = %d, want 1", w.M())
	}
}

func TestAccessors(t *testing.T) {
	w := buildLinear(t, "s", "m", "t")
	if got := w.Sources(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("Sources = %v", got)
	}
	if got := w.Sinks(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Sinks = %v", got)
	}
	if got := w.TopoIDs(); got[0] != "s" || got[2] != "t" {
		t.Fatalf("TopoIDs = %v", got)
	}
	if got := w.Edges(); len(got) != 2 || got[0] != [2]string{"s", "m"} {
		t.Fatalf("Edges = %v", got)
	}
	if w.MustIndex("m") != 1 {
		t.Fatal("MustIndex wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustIndex must panic on unknown id")
			}
		}()
		w.MustIndex("ghost")
	}()
	if got := w.SortedIDs(); got[0] != "m" {
		t.Fatalf("SortedIDs = %v", got)
	}
	if s := w.String(); !strings.Contains(s, "3 tasks") {
		t.Fatalf("String = %q", s)
	}
}

func TestStats(t *testing.T) {
	w, err := NewBuilder("st").
		AddTask("a").AddTask("b").AddTask("c").AddTask("d").
		AddEdge("a", "b").AddEdge("a", "c").AddEdge("b", "d").AddEdge("c", "d").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Tasks != 4 || s.Edges != 4 || s.Sources != 1 || s.Sinks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Depth != 2 {
		t.Fatalf("Depth = %d, want 2", s.Depth)
	}
	if s.MaxDeg != 2 {
		t.Fatalf("MaxDeg = %d, want 2", s.MaxDeg)
	}
	if s.Density != 1.0 {
		t.Fatalf("Density = %f", s.Density)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w, err := NewBuilder("rt").
		AddTask("a", WithName("Alpha"), WithKind("source")).
		AddTask("b").
		AddEdge("a", "b").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Name() != "rt" || w2.N() != 2 || w2.M() != 1 {
		t.Fatalf("round trip lost data: %v", w2)
	}
	if w2.Task(0).Name != "Alpha" || w2.Task(0).Kind != "source" {
		t.Fatalf("task metadata lost: %+v", w2.Task(0))
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","tasks":[],"edges":[]}`, // empty
		`{"name":"x","tasks":[{"id":"a"}],"edges":[["a","b"]]}`,                      // dangling
		`{"name":"x","tasks":[{"id":"a"},{"id":"a"}],"edges":[]}`,                    // dup
		`{"name":"x","unknown":1,"tasks":[{"id":"a"}],"edges":[]}`,                   // unknown field
		`{"name":"x","tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b"],["b","a"]]}`, // cycle
	}
	for i, c := range cases {
		if _, err := DecodeJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
