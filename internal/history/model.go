package history

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"wolves/internal/dag"
	"wolves/internal/engine"
	"wolves/internal/provenance"
	"wolves/internal/provenance/provenancetest"
	"wolves/internal/runs"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

var success engine.Code // the code of an operation that succeeds

// state is what the model knows. Its slices only grow, so a snapshot
// is a set of headers.
type state struct {
	version uint64
	tasks   []string
	edges   [][2]int // insertion order, no duplicates
	views   []*viewDef
	runs    []*runDoc
}

// viewDef is an attached view: its composites, then a singleton per
// task added after it was attached.
type viewDef struct {
	id    string
	comps [][]string // ID, then members
	at    int        // task count at attach
}

// runDoc is a run document as the generator wrote it. An artifact has
// an "id" and, unless it is an external input, a "generated_by" task; a
// used edge has a "process" and an "artifact".
type runDoc struct {
	Run       string              `json:"run"`
	Artifacts []map[string]string `json:"artifacts"`
	Used      []map[string]string `json:"used"`
}

// model recomputes every answer from its state alone: Graph.Reachability
// through the provenance engines and the soundness oracle, ValidateView
// and provenancetest.Reference. What it derives from the workflow is
// built on first use and dropped when the structure changes.
type model struct {
	state
	index  map[string]int
	wf     *workflow.Workflow
	oracle *soundness.Oracle
	prov   *provenance.Engine
	dv     map[string]*derivedView
}

type derivedView struct {
	v      *view.View
	report *soundness.Report
	ve     *provenance.ViewEngine // ve and audit: built on first lineage use
	audit  *provenancetest.Audit
}

func (m *model) snapshot() state {
	s := m.state
	s.tasks, s.edges, s.views, s.runs = slices.Clip(s.tasks), slices.Clip(s.edges), slices.Clone(s.views), slices.Clone(s.runs)
	return s
}

func (m *model) restore(s state) {
	m.state, m.wf, m.index = s, nil, make(map[string]int, len(s.tasks))
	for i, id := range s.tasks {
		m.index[id] = i
	}
}

// resolve maps op's edges to task indices, numbering op's new tasks
// after the model's; ok is false at a self-loop, which makes the batch
// bad input. A rejected batch leaves its tasks out of the index, an
// applied one puts them at the same indices, so resolve gives the same
// answer before and after apply.
func (m *model) resolve(op Op) (edges [][2]int, ok bool) {
	ix := func(id string) int {
		if i, ok := m.index[id]; ok {
			return i
		}
		return len(m.tasks) + slices.Index(op.Tasks, id)
	}
	for _, e := range op.Edges {
		if u, v := ix(e[0]), ix(e[1]); u != v {
			edges = append(edges, [2]int{u, v})
		} else {
			return nil, false
		}
	}
	return edges, true
}

// apply applies op as the engine specifies it and returns the code the
// engine must answer with and whether the state changed.
func (m *model) apply(op Op) (engine.Code, bool) {
	switch op.Kind {
	case Register:
		g := op.WF.Graph()
		m.restore(state{version: 1, tasks: op.WF.IDs()})
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Succs(u) {
				m.edges = append(m.edges, [2]int{u, int(v)})
			}
		}
		m.derive(op.WF.Clone()) // the registered document is the model's workflow
	case Mutate, Grow:
		return m.mutate(op)
	case Attach:
		m.views = append(m.views, &viewDef{id: op.View, comps: op.Comps, at: len(m.tasks)})
	case Detach: // a snapshot may share the slice: delete from a copy
		m.views = slices.DeleteFunc(slices.Clone(m.views), func(vd *viewDef) bool { return vd.id == op.View })
	case Ingest:
		m.runs = append(m.runs, op.Runs...)
	default:
		return success, false
	}
	return success, true
}

// mutate applies a batch: new tasks, then edges, duplicates ignored.
// Cycles only grow with edges, so some edge closes one exactly when the
// whole batch does; then the batch is rejected as a whole.
func (m *model) mutate(op Op) (engine.Code, bool) {
	edges, ok := m.resolve(op)
	if !ok {
		return engine.ErrBadInput, false
	}
	g := dag.New(len(m.tasks) + len(op.Tasks))
	for _, e := range m.edges {
		g.MustAddEdge(e[0], e[1])
	}
	var added [][2]int
	for _, e := range edges {
		if ok, _ := g.AddEdge(e[0], e[1]); ok {
			added = append(added, e)
		}
	}
	if !g.IsAcyclic() {
		return engine.ErrCycleRejected, false
	}
	if len(op.Tasks)+len(added) == 0 {
		return success, false
	}
	for _, id := range op.Tasks {
		m.index[id], m.tasks = len(m.tasks), append(m.tasks, id)
	}
	m.edges, m.wf = append(m.edges, added...), nil
	m.version++
	return success, true
}

// workflow builds the workflow from scratch, with a fresh oracle.
func (m *model) workflow() *workflow.Workflow {
	if m.wf == nil {
		b := workflow.NewBuilder(wfID)
		for _, id := range m.tasks {
			b.AddTask(id)
		}
		for _, e := range m.edges {
			b.AddEdge(m.tasks[e[0]], m.tasks[e[1]])
		}
		m.derive(must(b.Build()))
	}
	return m.wf
}

func (m *model) derive(wf *workflow.Workflow) {
	m.wf, m.oracle, m.prov, m.dv = wf, soundness.NewOracle(wf), nil, map[string]*derivedView{}
}

func (m *model) engine() *provenance.Engine {
	if m.workflow(); m.prov == nil {
		m.prov = provenance.NewEngine(m.wf)
	}
	return m.prov
}

// view builds view vid from scratch and validates it over the fresh
// oracle.
func (m *model) view(vid string) *derivedView {
	wf := m.workflow()
	if m.dv[vid] == nil {
		vd := m.views[slices.IndexFunc(m.views, func(vd *viewDef) bool { return vd.id == vid })]
		v := must(buildView(wf, vd.id, vd.comps, m.tasks[vd.at:]))
		m.dv[vid] = &derivedView{v: v, report: soundness.ValidateView(m.oracle, v)}
	}
	return m.dv[vid]
}

// lineageView is view vid with its view-level lineage engine and
// reference audit.
func (m *model) lineageView(vid string) *derivedView {
	if dv := m.view(vid); dv.audit == nil {
		dv.ve, dv.audit = provenance.NewViewEngine(dv.v), provenancetest.Reference(dv.v)
	}
	return m.dv[vid]
}

// buildView builds a view from its composites, plus a singleton per
// task in extra.
func buildView(wf *workflow.Workflow, id string, comps [][]string, extra []string) (*view.View, error) {
	b := view.NewBuilder(wf, id)
	for _, c := range comps {
		b.Assign(c[0], c[1:]...)
	}
	for _, t := range extra {
		b.Assign(t, t)
	}
	return b.Build()
}

func must[T any](x T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("history: model: %v", err))
	}
	return x
}

// expected renders the model's workflow info and run IDs in the form
// History.observed renders the layers'.
func (m *model) expected() string {
	var views, ids []string
	for _, vd := range m.views {
		views = append(views, vd.id)
	}
	for _, r := range m.runs {
		ids = append(ids, r.Run)
	}
	return fmt.Sprint(engine.WorkflowInfo{ID: wfID, Version: m.version, Fingerprint: m.workflow().Fingerprint(),
		Tasks: len(m.tasks), Edges: len(m.edges), Views: views}, ids)
}

// names maps indices to IDs; nil when there are none.
func names(ixs []int, id func(int) string) (out []string) {
	for _, i := range ixs {
		out = append(out, id(i))
	}
	return out
}

// answer is the reference answer to q: the lineage engine's task set,
// or the view engine's at the view levels, restricted to the run, with
// the reference audit's delta and the witness walked over the document.
func (m *model) answer(q runs.Query) *runs.Answer {
	r := m.runs[slices.IndexFunc(m.runs, func(r *runDoc) bool { return r.Run == q.Run })]
	a := &runs.Answer{Workflow: wfID, Run: r.Run, Artifact: q.Artifact, Level: cmp.Or(q.Level, runs.LevelExact),
		Direction: cmp.Or(q.Direction, runs.DirAncestors), Version: m.version, Tasks: []string{}, Artifacts: []string{}}
	by := map[string]string{}
	for _, art := range r.Artifacts {
		by[art["id"]], by[art["generated_by"]] = art["generated_by"], art["generated_by"] // an invoked task maps to itself
	}
	var dv *derivedView
	if a.Level != runs.LevelExact {
		dv = m.lineageView(q.View)
		a.View, a.ViewSound = q.View, ptr(dv.report.Sound)
	}
	if a.Level == runs.LevelAudited {
		a.Sound = ptr(true)
	}
	if a.Producer = by[q.Artifact]; a.Producer == "" {
		return a
	}
	home, anc := m.index[a.Producer], a.Direction == runs.DirAncestors
	tasks := m.engine().Descendants(home)
	if anc {
		tasks = m.engine().Lineage(home)
	}
	if dv != nil {
		hc, comp := dv.v.CompOf(home), func(ci int) string { return dv.v.Composite(ci).ID }
		comps, spur, miss := dv.ve.CompositeDescendants(hc), dv.audit.SpuriousDownstream[hc], dv.audit.MissingDownstream[hc]
		if tasks = dv.ve.TaskDescendants(home); anc {
			comps, spur, miss = dv.ve.CompositeLineage(hc), dv.audit.SpuriousUpstream[hc], dv.audit.MissingUpstream[hc]
			tasks = dv.ve.TaskLineage(home)
		}
		a.Composites = names(comps, comp)
		if a.Level == runs.LevelAudited {
			a.Spurious, a.Missing, a.Sound = names(spur, comp), names(miss, comp), ptr(len(spur)+len(miss) == 0)
			for _, ci := range spur {
				a.SpuriousTasks = append(a.SpuriousTasks, slices.DeleteFunc(dv.v.MemberIDs(ci), func(t string) bool { return by[t] != t })...)
			}
		}
	}
	in := map[string]bool{}
	for _, u := range tasks {
		in[m.tasks[u]] = true
		if by[m.tasks[u]] != "" { // invoked in the run
			a.Tasks = append(a.Tasks, m.tasks[u])
		}
	}
	for _, art := range r.Artifacts {
		if in[art["generated_by"]] {
			a.Artifacts = append(a.Artifacts, art["id"])
		}
	}
	if q.Witness {
		a.Witness = r.witness(q.Artifact, by)
	}
	return a
}

func ptr(b bool) *bool { return &b }

// witness is the why-provenance of art: a breadth-first walk back over
// the document's wasGeneratedBy and used edges, in document order.
func (r *runDoc) witness(art string, by map[string]string) (out []runs.WhyEdge) {
	seenArt, seenProc := map[string]bool{art: true}, map[string]bool{}
	for queue := []string{art}; len(queue) > 0; queue = queue[1:] {
		p := by[queue[0]]
		if p == "" {
			continue
		}
		out = append(out, runs.WhyEdge{Relation: "wasGeneratedBy", Process: p, Artifact: queue[0]})
		for _, u := range r.Used {
			if u["process"] == p && !seenProc[p] {
				out = append(out, runs.WhyEdge{Relation: "used", Process: p, Artifact: u["artifact"]})
				if !seenArt[u["artifact"]] {
					seenArt[u["artifact"]], queue = true, append(queue, u["artifact"])
				}
			}
		}
		seenProc[p] = true
	}
	return out
}

// viewLineage is the reference LiveWorkflow.Lineage result.
func (m *model) viewLineage(vid, task string) *engine.LineageResult {
	dv, t, id := m.lineageView(vid), m.index[task], func(u int) string { return m.tasks[u] }
	exact, viewed := m.engine().Lineage(t), dv.ve.TaskLineage(t)
	res := &engine.LineageResult{Task: task, Version: m.version, ViewSound: dv.report.Sound,
		WorkflowLineage: append([]string{}, names(exact, id)...), ViewLineage: append([]string{}, names(viewed, id)...),
		CompositeLineage: names(dv.ve.CompositeLineage(dv.v.CompOf(t)), func(ci int) string { return dv.v.Composite(ci).ID })}
	for _, u := range viewed {
		if _, ok := slices.BinarySearch(exact, u); !ok {
			res.FalsePositives = append(res.FalsePositives, id(u))
		}
	}
	return res
}

func (r *runDoc) json() []byte {
	b, _ := json.Marshal(r)
	return b
}

func (r *runDoc) ndjson() []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	_ = enc.Encode(map[string]string{"run": r.Run})
	for _, a := range r.Artifacts {
		_ = enc.Encode(map[string]any{"artifact": a})
	}
	for _, u := range r.Used {
		_ = enc.Encode(map[string]any{"used": u})
	}
	return b.Bytes()
}
