// Package workflow models workflow specifications: directed acyclic
// graphs of named atomic tasks connected by data-dependency edges, as in
// Figure 1(a) of the WOLVES paper. A Workflow is immutable once built;
// use Builder to construct one with full validation (duplicate IDs,
// dangling edge endpoints, self-loops, cycles).
package workflow

import (
	"errors"
	"fmt"
	"slices"
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
	index taskIndex
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
}

// NewBuilder returns a Builder for a workflow with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddTask registers an atomic task. Returns the builder for chaining.
// An empty or repeated ID fails the Build.
func (b *Builder) AddTask(id string, opts ...TaskOption) *Builder {
	t := Task{ID: id, Name: id}
	for _, o := range opts {
		o(&t)
	}
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

// Build validates and freezes the workflow. The first failure wins, in
// this order: an empty or repeated task ID (in AddTask order), no tasks
// at all, an edge naming an unknown task or depending on itself (in
// AddEdge order), a cycle.
func (b *Builder) Build() (*Workflow, error) {
	w, err := newWorkflow(b.name, slices.Clone(b.tasks))
	if err != nil {
		return nil, err
	}
	edges := make([]int32, 0, 2*len(b.edges))
	for _, e := range b.edges {
		u, uok := w.Index(e[0])
		v, vok := w.Index(e[1])
		if err := checkEdge(e[0], e[1], u, v, uok, vok); err != nil {
			return nil, err
		}
		edges = append(edges, int32(u), int32(v))
	}
	return w.freeze(edges)
}

// newWorkflow is the first half of the one workflow constructor behind
// Builder.Build and the JSON decoder: it takes ownership of tasks (in
// index order, Name already defaulted) and indexes their IDs, failing
// on the first empty or repeated ID, or on an empty task list. The
// caller resolves its edges against the index (checkEdge) and hands
// them to freeze.
func newWorkflow(name string, tasks []Task) (*Workflow, error) {
	w := &Workflow{name: name, tasks: tasks, index: newTaskIndex(len(tasks))}
	for i, t := range tasks {
		if t.ID == "" {
			return nil, errors.New("workflow: empty task id")
		}
		if !w.index.add(tasks, i) {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
		}
	}
	if len(tasks) == 0 {
		return nil, ErrEmpty
	}
	return w, nil
}

// checkEdge reports why the edge from → to, whose endpoints resolved to
// u (found: uok) and v (vok), cannot be added — an unknown source, an
// unknown target, a self-dependency, in that order — or nil. from and
// to are strings or byte slices, so a decoder checks straight from its
// buffer.
func checkEdge[S ~string | ~[]byte](from, to S, u, v int, uok, vok bool) error {
	switch {
	case !uok:
		return fmt.Errorf("%w: edge source %q", ErrUnknownTask, from)
	case !vok:
		return fmt.Errorf("%w: edge target %q", ErrUnknownTask, to)
	case u == v:
		return fmt.Errorf("workflow: edge %q→%q: self-dependency", from, to)
	}
	return nil
}

// freeze completes newWorkflow: it builds the dependency graph in bulk
// from edges, task-index pairs already resolved, and rejects cycles.
func (w *Workflow) freeze(edges []int32) (*Workflow, error) {
	w.g = dag.Build(len(w.tasks), edges)
	if !w.g.IsAcyclic() {
		return nil, fmt.Errorf("workflow %q: %w (cycle: %s)", w.name, dag.ErrCycle, describeCycle(w.g, w))
	}
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
	return w.index.lookup(w.tasks, id)
}

// IndexBytes is Index for an ID held as bytes; the lookup materializes
// no string.
func (w *Workflow) IndexBytes(id []byte) (int, bool) {
	return w.index.lookupBytes(w.tasks, id)
}

// MustIndex is Index for callers holding validated IDs.
func (w *Workflow) MustIndex(id string) int {
	i, ok := w.Index(id)
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
	return &Workflow{
		name:  w.name,
		tasks: append([]Task(nil), w.tasks...),
		index: taskIndex{slots: slices.Clone(w.index.slots)},
		g:     w.g.Clone(),
	}
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
		if _, dup := w.Index(t.ID); dup || seen[t.ID] {
			return 0, fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
		}
		seen[t.ID] = true
	}
	first := len(w.tasks)
	for _, t := range ts {
		if t.Name == "" {
			t.Name = t.ID
		}
		w.tasks = append(w.tasks, t)
		w.index.add(w.tasks, len(w.tasks)-1)
	}
	w.StructureChanged()
	return first, nil
}

// TruncateTasks rolls the task list back to n entries — the rollback
// counterpart of ExtendTasks for a failed mutation batch. The dependency
// graph must already have been shrunk in step.
func (w *Workflow) TruncateTasks(n int) {
	for i := len(w.tasks) - 1; i >= n; i-- {
		w.index.removeLast(w.tasks, i)
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
