// Package view models workflow views: partitions of a workflow's atomic
// tasks into composite tasks, as in Figure 1(b) of the WOLVES paper. The
// view graph is the quotient of the workflow DAG under the partition,
// preserving all inter-composite edges.
//
// A View is immutable; correction and user feedback produce new Views via
// ReplaceComposite and MergeComposites.
package view

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wolves/internal/dag"
	"wolves/internal/workflow"
)

// Composite is a composite task: a named, non-empty set of atomic tasks.
type Composite struct {
	ID      string
	Name    string
	members []int // ascending workflow task indices
}

// Members returns the workflow task indices in the composite, ascending.
// The slice is shared; do not mutate.
func (c *Composite) Members() []int { return c.members }

// Size returns the number of atomic tasks in the composite.
func (c *Composite) Size() int { return len(c.members) }

// View is an immutable partition of a workflow's tasks into composites.
type View struct {
	wf     *workflow.Workflow
	name   string
	comps  []Composite
	compOf []int
	index  map[string]int
}

// Errors reported during view construction and editing.
var (
	ErrNotPartition  = errors.New("view: composites do not partition the workflow tasks")
	ErrUnknownComp   = errors.New("view: unknown composite id")
	ErrDuplicateComp = errors.New("view: duplicate composite id")
	ErrEmptyComp     = errors.New("view: empty composite")
)

// Builder accumulates composite assignments for a workflow.
type Builder struct {
	wf    *workflow.Workflow
	name  string
	order []string
	comps map[string][]string
	names map[string]string
}

// NewBuilder returns a view builder over wf.
func NewBuilder(wf *workflow.Workflow, name string) *Builder {
	return &Builder{wf: wf, name: name, comps: map[string][]string{}, names: map[string]string{}}
}

// Assign adds task IDs to composite compID (created on first use).
func (b *Builder) Assign(compID string, taskIDs ...string) *Builder {
	if _, ok := b.comps[compID]; !ok {
		b.order = append(b.order, compID)
	}
	b.comps[compID] = append(b.comps[compID], taskIDs...)
	return b
}

// Named sets the human-readable name of a composite.
func (b *Builder) Named(compID, name string) *Builder {
	b.names[compID] = name
	return b
}

// Build validates that the assignment is an exact partition and freezes
// the view. Composites come in first-Assign order, each with its
// members ascending; the first failure wins, in this order per
// composite: no members, then each member in Assign order unknown to
// the workflow or assigned twice; after all composites, a task left
// unassigned.
func (b *Builder) Build() (*View, error) {
	n := 0
	for _, cid := range b.order {
		n += len(b.comps[cid])
	}
	slab := make([]int, 0, n)
	comps := make([]Composite, len(b.order))
	for ci, cid := range b.order {
		name := b.names[cid]
		if name == "" {
			name = cid
		}
		lo := len(slab)
		for _, tid := range b.comps[cid] {
			ti, ok := b.wf.Index(tid)
			if !ok {
				ti = unknownMember
			}
			slab = append(slab, ti)
		}
		comps[ci] = Composite{ID: cid, Name: name, members: slab[lo:len(slab):len(slab)]}
	}
	return assemble(b.wf, b.name, comps, func(c *Composite, j int) string { return b.comps[c.ID][j] })
}

// unknownMember stands in a member list, as assemble takes it, for a
// member the workflow does not know.
const unknownMember = -1

// assemble is the one view constructor: Builder.Build, the JSON decoder,
// FromPartition, Atomic, ReplaceComposite and MergeComposites all hand
// it composites (distinct IDs, names set) whose members are workflow
// task indices. It checks the partition in the order given — per
// composite, no members, then each member unknown (unknownMember: member
// returns the ID member j of c was given as) or assigned twice; then a
// task left unassigned — sorts the member lists that are not ascending
// yet, and indexes the composite IDs. Member lists already ascending are never
// written, so the edits can share them with the view they edit.
func assemble(wf *workflow.Workflow, name string, comps []Composite, member func(c *Composite, j int) string) (*View, error) {
	v := &View{
		wf:     wf,
		name:   name,
		comps:  comps,
		compOf: make([]int, wf.N()),
		index:  make(map[string]int, len(comps)),
	}
	for i := range v.compOf {
		v.compOf[i] = -1
	}
	for ci := range comps {
		c := &comps[ci]
		if len(c.members) == 0 {
			return nil, fmt.Errorf("%w: %q", ErrEmptyComp, c.ID)
		}
		v.index[c.ID] = ci
		for j, t := range c.members {
			if t == unknownMember {
				return nil, fmt.Errorf("view: composite %q: %w: task %q", c.ID, workflow.ErrUnknownTask, member(c, j))
			}
			if v.compOf[t] != -1 {
				return nil, fmt.Errorf("%w: task %q assigned twice", ErrNotPartition, wf.Task(t).ID)
			}
			v.compOf[t] = ci
		}
		if !slices.IsSorted(c.members) {
			slices.Sort(c.members)
		}
	}
	for ti, ci := range v.compOf {
		if ci == -1 {
			return nil, fmt.Errorf("%w: task %q unassigned", ErrNotPartition, wf.Task(ti).ID)
		}
	}
	return v, nil
}

// FromAssignments builds a view from a composite→tasks map. Composite IDs
// are processed in sorted order for determinism.
func FromAssignments(wf *workflow.Workflow, name string, assign map[string][]string) (*View, error) {
	b := NewBuilder(wf, name)
	cids := make([]string, 0, len(assign))
	for cid := range assign {
		cids = append(cids, cid)
	}
	sort.Strings(cids)
	for _, cid := range cids {
		b.Assign(cid, assign[cid]...)
	}
	return b.Build()
}

// Atomic returns the identity view: one singleton composite per task,
// composite IDs equal to task IDs.
func Atomic(wf *workflow.Workflow) *View {
	slab := make([]int, wf.N())
	comps := make([]Composite, wf.N())
	for t := range slab {
		slab[t] = t
		id := wf.Task(t).ID
		comps[t] = Composite{ID: id, Name: id, members: slab[t : t+1 : t+1]}
	}
	v, err := assemble(wf, wf.Name()+"-atomic", comps, nil)
	if err != nil {
		panic("view: atomic view must build: " + err.Error())
	}
	return v
}

// FromPartition builds a view from dense block assignments: partOf[t] is
// the block of task index t; block IDs become "B0", "B1", ….
func FromPartition(wf *workflow.Workflow, name string, partOf []int) (*View, error) {
	if len(partOf) != wf.N() {
		return nil, fmt.Errorf("view: partition has %d entries, workflow has %d tasks", len(partOf), wf.N())
	}
	k := 0
	for _, b := range partOf {
		if b < 0 {
			return nil, fmt.Errorf("view: negative block id %d", b)
		}
		if b+1 > k {
			k = b + 1
		}
	}
	// Counting sort of the tasks by block: off[b] is where block b's
	// members start in slab, ascending because tasks are placed in
	// index order.
	off := make([]int, k+1)
	for _, b := range partOf {
		off[b+1]++
	}
	for b := 0; b < k; b++ {
		if off[b+1] == 0 {
			return nil, fmt.Errorf("view: block %d is empty", b)
		}
		off[b+1] += off[b]
	}
	slab := make([]int, len(partOf))
	next := slices.Clone(off[:k])
	for t, b := range partOf {
		slab[next[b]] = t
		next[b]++
	}
	comps := make([]Composite, k)
	for b := range comps {
		id := "B" + strconv.Itoa(b)
		comps[b] = Composite{ID: id, Name: id, members: slab[off[b]:off[b+1]:off[b+1]]}
	}
	return assemble(wf, name, comps, nil)
}

// Workflow returns the underlying workflow.
func (v *View) Workflow() *workflow.Workflow { return v.wf }

// Name returns the view name.
func (v *View) Name() string { return v.name }

// N returns the number of composite tasks.
func (v *View) N() int { return len(v.comps) }

// Composite returns the composite at index i.
func (v *View) Composite(i int) *Composite { return &v.comps[i] }

// CompositeByID looks a composite up by ID.
func (v *View) CompositeByID(id string) (*Composite, bool) {
	i, ok := v.index[id]
	if !ok {
		return nil, false
	}
	return &v.comps[i], true
}

// CompIndex returns the dense index of a composite ID.
func (v *View) CompIndex(id string) (int, bool) {
	i, ok := v.index[id]
	return i, ok
}

// CompOf returns the composite index containing workflow task index t.
func (v *View) CompOf(t int) int { return v.compOf[t] }

// PartOf returns the task→composite assignment as a dense slice (copy).
func (v *View) PartOf() []int { return append([]int(nil), v.compOf...) }

// Graph returns the view (quotient) graph over composite indices. The
// quotient of a DAG can be cyclic for badly designed views; callers use
// dag diagnostics on the result.
func (v *View) Graph() *dag.Graph {
	q, err := v.wf.Graph().Quotient(v.compOf, len(v.comps))
	if err != nil {
		panic("view: internal partition invalid: " + err.Error())
	}
	return q
}

// In returns T.in per Definition 2.2: members of composite ci having at
// least one predecessor outside the composite. Ascending task indices.
func (v *View) In(ci int) []int {
	var out []int
	g := v.wf.Graph()
	for _, t := range v.comps[ci].members {
		for _, p := range g.Preds(t) {
			if v.compOf[p] != ci {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// Out returns T.out per Definition 2.2: members of composite ci having at
// least one successor outside the composite. Ascending task indices.
func (v *View) Out(ci int) []int {
	var out []int
	g := v.wf.Graph()
	for _, t := range v.comps[ci].members {
		for _, s := range g.Succs(t) {
			if v.compOf[s] != ci {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// MergeComposites returns a new view in which the listed composites are
// replaced by a single composite with the given id (the demo's "Create
// Composite Task" feedback operation). The merged composite takes the
// place of the first of them; every other composite keeps its ID, name
// and member list, shared with v.
func (v *View) MergeComposites(newID string, compIDs ...string) (*View, error) {
	if len(compIDs) < 2 {
		return nil, errors.New("view: merge needs at least two composites")
	}
	merge := make([]bool, len(v.comps))
	for _, id := range compIDs {
		i, ok := v.index[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownComp, id)
		}
		merge[i] = true
	}
	if i, exists := v.index[newID]; exists && !merge[i] {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateComp, newID)
	}
	size, first := 0, -1
	for i, m := range merge {
		if m {
			size += len(v.comps[i].members)
			if first < 0 {
				first = i
			}
		}
	}
	members := make([]int, 0, size)
	comps := make([]Composite, 0, len(v.comps))
	for i := range v.comps {
		switch {
		case !merge[i]:
			comps = append(comps, v.comps[i])
		case i == first:
			for j, m := range merge {
				if m {
					members = append(members, v.comps[j].members...)
				}
			}
			comps = append(comps, Composite{ID: newID, Name: newID, members: members})
		}
	}
	return assemble(v.wf, v.name, comps, nil)
}

// ReplaceComposite returns a new view in which composite id is replaced
// by the given blocks (task-index sets partitioning its members), in its
// place. A single block keeps the ID id. Otherwise block i is named
// id+".k" for the next k, counting from 1, that names no other
// composite of v — so a split never folds a block into an existing
// composite that happens to be called id+".1". Blocks are named after
// their IDs; every other composite keeps its ID, name and member list,
// shared with v. This is how corrector splits are applied.
func (v *View) ReplaceComposite(id string, blocks [][]int) (*View, error) {
	ci, ok := v.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComp, id)
	}
	seen := make([]bool, v.wf.N())
	total := 0
	for _, blk := range blocks {
		if len(blk) == 0 {
			return nil, fmt.Errorf("%w: in split of %q", ErrEmptyComp, id)
		}
		for _, t := range blk {
			if v.compOf[t] != ci {
				return nil, fmt.Errorf("view: split of %q contains foreign task %q", id, v.wf.Task(t).ID)
			}
			if seen[t] {
				return nil, fmt.Errorf("%w: task %q duplicated in split of %q", ErrNotPartition, v.wf.Task(t).ID, id)
			}
			seen[t] = true
			total++
		}
	}
	if total != len(v.comps[ci].members) {
		return nil, fmt.Errorf("%w: split of %q covers %d of %d members", ErrNotPartition, id, total, len(v.comps[ci].members))
	}
	ids := v.blockIDs(id, len(blocks))
	members := make([]int, 0, total)
	comps := make([]Composite, 0, len(v.comps)-1+len(blocks))
	comps = append(comps, v.comps[:ci]...)
	for bi, blk := range blocks {
		lo := len(members)
		members = append(members, blk...)
		comps = append(comps, Composite{ID: ids[bi], Name: ids[bi], members: members[lo:len(members):len(members)]})
	}
	comps = append(comps, v.comps[ci+1:]...)
	return assemble(v.wf, v.name, comps, nil)
}

// blockIDs names the n blocks ReplaceComposite splits composite id
// into (see there). The IDs share one string, so a split costs the same
// few allocations whatever its block count.
func (v *View) blockIDs(id string, n int) []string {
	if n == 1 {
		return []string{id}
	}
	buf := make([]byte, 0, n*(len(id)+4))
	ends := make([]int, 0, n) // ID i ends at ends[i] in buf
	for k := 1; len(ends) < n; k++ {
		lo := len(buf)
		buf = strconv.AppendInt(append(append(buf, id...), '.'), int64(k), 10)
		if _, taken := v.index[string(buf[lo:])]; taken {
			buf = buf[:lo]
			continue
		}
		ends = append(ends, len(buf))
	}
	all, ids, lo := string(buf), make([]string, n), 0
	for i, hi := range ends {
		ids[i], lo = all[lo:hi], hi
	}
	return ids
}

// ExtendSingletons returns a view covering every workflow task the view
// does not yet cover — tasks appended to a live workflow after the view
// was built — as new singleton composites (ID and name equal to the task
// ID), in task-index order after the existing composites. Existing
// composite indices are unchanged, so incrementally maintained reports
// stay aligned. Fails with ErrDuplicateComp when a new task's ID
// collides with an existing composite ID; the registry prechecks this
// before mutating anything. When the view already covers the workflow,
// v itself is returned.
func (v *View) ExtendSingletons() (*View, error) {
	n := v.wf.N()
	if n == len(v.compOf) {
		return v, nil
	}
	for t := len(v.compOf); t < n; t++ {
		if _, clash := v.index[v.wf.Task(t).ID]; clash {
			return nil, fmt.Errorf("%w: task %q already names a composite", ErrDuplicateComp, v.wf.Task(t).ID)
		}
	}
	nv := &View{
		wf:     v.wf,
		name:   v.name,
		comps:  append(make([]Composite, 0, len(v.comps)+n-len(v.compOf)), v.comps...),
		compOf: append(make([]int, 0, n), v.compOf...),
		index:  make(map[string]int, len(v.index)+n-len(v.compOf)),
	}
	for id, i := range v.index {
		nv.index[id] = i
	}
	for t := len(v.compOf); t < n; t++ {
		id := v.wf.Task(t).ID
		ci := len(nv.comps)
		nv.index[id] = ci
		nv.comps = append(nv.comps, Composite{ID: id, Name: id, members: []int{t}})
		nv.compOf = append(nv.compOf, ci)
	}
	return nv, nil
}

// CompositeIDs returns composite IDs in index order.
func (v *View) CompositeIDs() []string {
	out := make([]string, len(v.comps))
	for i := range v.comps {
		out[i] = v.comps[i].ID
	}
	return out
}

// MemberIDs returns the task IDs of composite ci, ascending by index.
func (v *View) MemberIDs(ci int) []string {
	ms := v.comps[ci].members
	out := make([]string, len(ms))
	for i, t := range ms {
		out[i] = v.wf.Task(t).ID
	}
	return out
}

// String renders a compact summary like "view v (7 composites over 12 tasks)".
func (v *View) String() string {
	return fmt.Sprintf("view %q (%d composites over %d tasks)", v.name, v.N(), v.wf.N())
}

// Describe renders one line per composite: "ID = {t1, t2}".
func (v *View) Describe() string {
	var b strings.Builder
	for i := range v.comps {
		fmt.Fprintf(&b, "%s = {%s}\n", v.comps[i].ID, strings.Join(v.MemberIDs(i), ", "))
	}
	return b.String()
}
