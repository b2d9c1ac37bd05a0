// Package workflow models workflow specifications: directed acyclic
// graphs of named atomic tasks connected by data-dependency edges, as in
// Figure 1(a) of the WOLVES paper. A Workflow is immutable once built;
// use Builder to construct one with full validation (duplicate IDs,
// dangling edge endpoints, self-loops, cycles).
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"wolves/internal/dag"
)

// Task is an atomic task of a workflow specification.
type Task struct {
	// ID is the unique identifier used by edges, views and MOML files.
	ID string
	// Name is a human-readable label; defaults to ID.
	Name string
	// Kind optionally classifies the task (e.g. "source", "align").
	Kind string
}

// Workflow is a workflow specification. Ordinary values are immutable
// once built; the engine's live workflow registry may additionally grow
// one in place through the sanctioned mutators (ExtendTasks, plus edge
// insertion routed through its incremental closure, followed by
// StructureChanged), under the registry's own write lock.
type Workflow struct {
	name  string
	tasks []Task
	index map[string]int
	g     *dag.Graph

	fpMu  sync.Mutex // guards fp, fpGen, gen
	fp    string     // cached fingerprint (see Fingerprint)
	fpGen uint64     // generation fp was computed at
	gen   uint64     // structural generation, bumped by StructureChanged
}

// Errors reported by Builder.Build and the accessors.
var (
	ErrDuplicateTask = errors.New("workflow: duplicate task id")
	ErrUnknownTask   = errors.New("workflow: unknown task id")
	ErrEmpty         = errors.New("workflow: no tasks")
)

// Builder accumulates tasks and edges and validates on Build.
type Builder struct {
	name  string
	tasks []Task
	edges [][2]string
	errs  []error
	seen  map[string]bool
}

// NewBuilder returns a Builder for a workflow with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, seen: map[string]bool{}}
}

// AddTask registers an atomic task. Returns the builder for chaining.
func (b *Builder) AddTask(id string, opts ...TaskOption) *Builder {
	t := Task{ID: id, Name: id}
	for _, o := range opts {
		o(&t)
	}
	if id == "" {
		b.errs = append(b.errs, errors.New("workflow: empty task id"))
		return b
	}
	if b.seen[id] {
		b.errs = append(b.errs, fmt.Errorf("%w: %q", ErrDuplicateTask, id))
		return b
	}
	b.seen[id] = true
	b.tasks = append(b.tasks, t)
	return b
}

// TaskOption customizes a task at AddTask time.
type TaskOption func(*Task)

// WithName sets the human-readable task name.
func WithName(name string) TaskOption { return func(t *Task) { t.Name = name } }

// WithKind sets the task kind.
func WithKind(kind string) TaskOption { return func(t *Task) { t.Kind = kind } }

// AddEdge registers the data dependency from → to.
func (b *Builder) AddEdge(from, to string) *Builder {
	b.edges = append(b.edges, [2]string{from, to})
	return b
}

// Chain adds edges id1→id2→…→idN.
func (b *Builder) Chain(ids ...string) *Builder {
	for i := 0; i+1 < len(ids); i++ {
		b.AddEdge(ids[i], ids[i+1])
	}
	return b
}

// Build validates and freezes the workflow.
func (b *Builder) Build() (*Workflow, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.tasks) == 0 {
		return nil, ErrEmpty
	}
	w := &Workflow{
		name:  b.name,
		tasks: append([]Task(nil), b.tasks...),
		index: make(map[string]int, len(b.tasks)),
	}
	for i, t := range w.tasks {
		w.index[t.ID] = i
	}
	g := dag.New(len(w.tasks))
	for _, e := range b.edges {
		u, ok := w.index[e[0]]
		if !ok {
			return nil, fmt.Errorf("%w: edge source %q", ErrUnknownTask, e[0])
		}
		v, ok := w.index[e[1]]
		if !ok {
			return nil, fmt.Errorf("%w: edge target %q", ErrUnknownTask, e[1])
		}
		if _, err := g.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("workflow: edge %q→%q: self-dependency", e[0], e[1])
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, fmt.Errorf("workflow %q: %w (cycle: %s)", b.name, err, describeCycle(g, w))
	}
	w.g = g
	return w, nil
}

// describeCycle names the tasks of the first non-trivial SCC.
func describeCycle(g *dag.Graph, w *Workflow) string {
	for _, comp := range g.SCC() {
		if len(comp) > 1 {
			ids := make([]string, len(comp))
			for i, u := range comp {
				ids[i] = w.tasks[u].ID
			}
			return strings.Join(ids, "→")
		}
	}
	return "unknown"
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

// N returns the number of tasks.
func (w *Workflow) N() int { return len(w.tasks) }

// M returns the number of edges.
func (w *Workflow) M() int { return w.g.M() }

// Task returns the task at index i.
func (w *Workflow) Task(i int) Task { return w.tasks[i] }

// Index returns the dense index of a task ID.
func (w *Workflow) Index(id string) (int, bool) {
	i, ok := w.index[id]
	return i, ok
}

// IndexBytes is Index for an ID held as bytes; the lookup materializes
// no string.
func (w *Workflow) IndexBytes(id []byte) (int, bool) {
	i, ok := w.index[string(id)]
	return i, ok
}

// MustIndex is Index for callers holding validated IDs.
func (w *Workflow) MustIndex(id string) int {
	i, ok := w.index[id]
	if !ok {
		panic(fmt.Sprintf("workflow: unknown task %q", id))
	}
	return i
}

// IDs returns all task IDs in index order.
func (w *Workflow) IDs() []string {
	out := make([]string, len(w.tasks))
	for i, t := range w.tasks {
		out[i] = t.ID
	}
	return out
}

// Graph returns the underlying dependency DAG. Shared; do not mutate.
func (w *Workflow) Graph() *dag.Graph { return w.g }

// Edges returns the edge list as ID pairs, ordered deterministically.
func (w *Workflow) Edges() [][2]string {
	var out [][2]string
	w.g.Edges(func(u, v int) {
		out = append(out, [2]string{w.tasks[u].ID, w.tasks[v].ID})
	})
	return out
}

// Sources returns IDs of tasks with no predecessors.
func (w *Workflow) Sources() []string { return w.names(w.g.Sources()) }

// Sinks returns IDs of tasks with no successors.
func (w *Workflow) Sinks() []string { return w.names(w.g.Sinks()) }

func (w *Workflow) names(idx []int) []string {
	out := make([]string, len(idx))
	for i, u := range idx {
		out[i] = w.tasks[u].ID
	}
	return out
}

// TopoIDs returns task IDs in a deterministic topological order.
func (w *Workflow) TopoIDs() []string {
	order, err := w.g.TopoOrder()
	if err != nil {
		panic("workflow: built workflow must be acyclic")
	}
	return w.names(order)
}

// Stats summarizes the structure of a workflow; the estimator groups
// workflows by these features.
type Stats struct {
	Tasks   int
	Edges   int
	Sources int
	Sinks   int
	MaxDeg  int
	Depth   int     // longest path length in edges
	Density float64 // edges / tasks
	AvgDeg  float64
}

// Stats computes structural statistics.
func (w *Workflow) Stats() Stats {
	s := Stats{Tasks: w.N(), Edges: w.M(), Sources: len(w.g.Sources()), Sinks: len(w.g.Sinks())}
	for u := 0; u < w.N(); u++ {
		d := w.g.OutDeg(u) + w.g.InDeg(u)
		if d > s.MaxDeg {
			s.MaxDeg = d
		}
	}
	order, _ := w.g.TopoOrder()
	depth := make([]int, w.N())
	for _, u := range order {
		for _, v := range w.g.Succs(u) {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
	}
	for _, d := range depth {
		if d > s.Depth {
			s.Depth = d
		}
	}
	if w.N() > 0 {
		s.Density = float64(w.M()) / float64(w.N())
		s.AvgDeg = 2 * float64(w.M()) / float64(w.N())
	}
	return s
}

// String renders a compact summary.
func (w *Workflow) String() string {
	return fmt.Sprintf("workflow %q (%d tasks, %d edges)", w.name, w.N(), w.M())
}

// Clone returns a deep, independent copy of w: its own task slice, ID
// index and dependency graph. The engine registry hands out clones as
// snapshots of live workflows, so later mutations never reach published
// state.
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{
		name:  w.name,
		tasks: append([]Task(nil), w.tasks...),
		index: make(map[string]int, len(w.index)),
		g:     w.g.Clone(),
	}
	for id, i := range w.index {
		c.index[id] = i
	}
	return c
}

// ExtendTasks appends new atomic tasks to a live workflow and returns
// the dense index of the first. IDs must be non-empty and new (both
// against the workflow and within the batch); on any error nothing is
// applied. The dependency graph must be grown in step by the caller —
// the registry routes node growth through its incremental closure.
// Ordinary Workflow values are immutable; only the engine registry calls
// this, under its write lock.
func (w *Workflow) ExtendTasks(ts []Task) (int, error) {
	seen := make(map[string]bool, len(ts))
	for _, t := range ts {
		if t.ID == "" {
			return 0, errors.New("workflow: empty task id")
		}
		if _, dup := w.index[t.ID]; dup || seen[t.ID] {
			return 0, fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
		}
		seen[t.ID] = true
	}
	first := len(w.tasks)
	for _, t := range ts {
		if t.Name == "" {
			t.Name = t.ID
		}
		w.index[t.ID] = len(w.tasks)
		w.tasks = append(w.tasks, t)
	}
	w.StructureChanged()
	return first, nil
}

// TruncateTasks rolls the task list back to n entries — the rollback
// counterpart of ExtendTasks for a failed mutation batch. The dependency
// graph must already have been shrunk in step.
func (w *Workflow) TruncateTasks(n int) {
	for _, t := range w.tasks[n:] {
		delete(w.index, t.ID)
	}
	w.tasks = w.tasks[:n]
	w.StructureChanged()
}

// SortedIDs returns task IDs sorted lexicographically (for stable output).
func (w *Workflow) SortedIDs() []string {
	ids := w.IDs()
	sort.Strings(ids)
	return ids
}
