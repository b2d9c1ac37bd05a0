package runs

import (
	"context"
	"sync"
	"time"

	"wolves/internal/dag"
	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/view"
)

// Query levels and directions.
const (
	LevelExact   = "exact"   // task-level reachability of the workflow
	LevelView    = "view"    // composite (quotient) closure of an attached view
	LevelAudited = "audited" // view level + provenance-audit delta

	DirAncestors   = "ancestors"   // lineage: what produced this artifact
	DirDescendants = "descendants" // impact: what consumed it downstream
)

// Query is one lineage question against an ingested run.
type Query struct {
	Run      string `json:"run"`
	Artifact string `json:"artifact"`
	// Level selects the answer granularity: exact (default), view or
	// audited. The view levels require View.
	Level string `json:"level,omitempty"`
	// View names the attached view for the view/audited levels.
	View string `json:"view,omitempty"`
	// Direction is ancestors (default) or descendants.
	Direction string `json:"direction,omitempty"`
	// Witness additionally returns the why-provenance of the answer: the
	// run's used/wasGeneratedBy edges reachable backward from the
	// artifact (ancestors direction only).
	Witness bool `json:"witness,omitempty"`
}

// WhyEdge is one edge of a why-provenance witness.
type WhyEdge struct {
	Relation string `json:"relation"` // "used" | "wasGeneratedBy"
	Process  string `json:"process"`  // invocation ID
	Artifact string `json:"artifact"`
}

// Answer is the response to one lineage query. Tasks and Artifacts are
// restricted to what actually happened in the queried run (tasks with an
// invocation, artifacts the run recorded); an artifact that was an
// external input answers with empty sets. For the view and audited
// levels ViewSound carries the view's incrementally maintained
// soundness; the audited level adds the per-query delta — Sound is true
// iff this specific answer has no spurious or missing composites.
//
// Answers are pool-backed: the store hands them out from a sync.Pool
// and Release returns one (with its slice capacity) for reuse. Callers
// that are done with an answer — after encoding it, typically — should
// Release it and not touch it afterwards; callers that retain answers
// (tests, long-lived aggregation) simply skip Release.
type Answer struct {
	Workflow string `json:"workflow"`
	Run      string `json:"run"`
	Artifact string `json:"artifact"`
	// Producer is the task whose invocation generated the artifact;
	// empty for external inputs.
	Producer  string `json:"producer,omitempty"`
	Level     string `json:"level"`
	Direction string `json:"direction"`
	// Version is the workflow version the answer was computed against.
	Version uint64 `json:"version"`
	// Tasks are the lineage (or impact) tasks invoked in this run,
	// ascending by task index; Artifacts are this run's artifacts those
	// tasks generated.
	Tasks     []string `json:"tasks"`
	Artifacts []string `json:"artifacts"`
	// View levels only:
	View       string   `json:"view,omitempty"`
	ViewSound  *bool    `json:"view_sound,omitempty"`
	Composites []string `json:"composites,omitempty"`
	// Audited level only:
	Sound *bool `json:"sound,omitempty"`
	// Spurious lists composites the view wrongly includes in this
	// answer (no real member-level path); Missing is the dual and stays
	// empty for quotient views. SpuriousTasks are the invoked member
	// tasks of the spurious composites — the concrete false positives a
	// view user would be misled by.
	Spurious      []string `json:"spurious_composites,omitempty"`
	Missing       []string `json:"missing_composites,omitempty"`
	SpuriousTasks []string `json:"spurious_tasks,omitempty"`
	// Witness (when requested) is the why-provenance: the used /
	// wasGeneratedBy edges of this run that support the answer.
	Witness []WhyEdge `json:"witness,omitempty"`

	// viewSoundVal/soundVal back the ViewSound/Sound pointers so a
	// pooled answer never allocates a bool cell per query.
	viewSoundVal bool
	soundVal     bool
}

var answerPool = sync.Pool{New: func() any { return new(Answer) }}

// newAnswer returns a reset pool-backed answer. Tasks/Artifacts are
// non-nil empty slices — the wire contract emits [] for them even when
// empty, never null.
func newAnswer() *Answer {
	a := answerPool.Get().(*Answer) //lint:allow poolret ownership transfers to the caller; Answer.Release is the Put
	if a.Tasks == nil {
		a.Tasks = []string{}
	}
	if a.Artifacts == nil {
		a.Artifacts = []string{}
	}
	return a
}

// Release resets the answer and returns it to the pool. The answer (and
// every slice it exposed) must not be used afterwards; release at most
// once.
func (a *Answer) Release() {
	if a == nil {
		return
	}
	*a = Answer{
		Tasks:         a.Tasks[:0],
		Artifacts:     a.Artifacts[:0],
		Composites:    a.Composites[:0],
		Spurious:      a.Spurious[:0],
		Missing:       a.Missing[:0],
		SpuriousTasks: a.SpuriousTasks[:0],
		Witness:       a.Witness[:0],
	}
	answerPool.Put(a)
}

// LineageCtx answers one query against an ingested run.
//
// The serve path is label-indexed and lock-free: the answer is
// assembled from the workflow's published ReadEpoch — reachability
// labels for membership, the run's invoked-task list for enumeration —
// without taking the workflow lock (the first audited query per view
// and version takes it once to build the audit). Answers are
// byte-identical to a from-scratch closure computation (see
// TestLabelAnswersMatchClosureRows). ctx carries the request's trace
// span so the serve shows up in the trace tail. The instrumentation is allocation-free — two clock reads, a pooled span
// when sampled, atomic counter/histogram updates — so the warm serve
// path stays 0 allocs/op (TestLineageAllocationCeiling guards it).
func (s *Store) LineageCtx(ctx context.Context, workflowID string, q Query) (*Answer, error) {
	level := q.Level
	if level == "" {
		level = LevelExact
	}
	dir := q.Direction
	if dir == "" {
		dir = DirAncestors
	}
	switch level {
	case LevelExact, LevelView, LevelAudited:
	default:
		return nil, errf(engine.ErrBadInput, "lineage",
			"unknown level %q (want exact|view|audited)", q.Level)
	}
	switch dir {
	case DirAncestors, DirDescendants:
	default:
		return nil, errf(engine.ErrBadInput, "lineage",
			"unknown direction %q (want ancestors|descendants)", q.Direction)
	}
	if level != LevelExact && q.View == "" {
		return nil, errf(engine.ErrBadInput, "lineage", "level %q requires a view", level)
	}
	if q.Witness && dir != DirAncestors {
		return nil, errf(engine.ErrBadInput, "lineage", "witness requires direction ancestors")
	}
	if q.Artifact == "" {
		return nil, errf(engine.ErrBadInput, "lineage", "missing artifact")
	}

	lw, run, err := s.lookup(workflowID, q.Run)
	if err != nil {
		return nil, err
	}
	ai, ok := run.artifact(q.Artifact)
	if !ok {
		return nil, errf(engine.ErrUnknownArtifact, "lineage",
			"run %q has no artifact %q", q.Run, q.Artifact)
	}
	start := time.Now()
	_, span := obs.StartSpan(ctx, "runs", "lineage")
	span.SetAttr("workflow", workflowID)
	span.SetAttr("level", level)

	ans, err := s.lineageLabels(lw, run, q, ai, level, dir)
	span.End()
	if err != nil {
		return nil, err
	}
	finishLineage(level, start)
	return ans, nil
}

// finishLineage records the per-level serve counters and latency for
// one answered query. Kept out of line (and off a defer closure) so the
// hot path pays exactly two atomic bumps and a histogram observe.
func finishLineage(level string, start time.Time) {
	obs.MLineageQueries.With(level).Inc()
	obs.MLineageLatency.With(level).Observe(time.Since(start).Seconds())
}

// lineageLabels serves one query entirely from the published read
// epoch. The run was validated under the read lock after its version's
// epoch was published, and task sets only grow, so the epoch covers
// every task the run names.
func (s *Store) lineageLabels(lw *engine.LiveWorkflow, run *Run, q Query, ai int32, level, dir string) (*Answer, error) {
	auditView := ""
	if level == LevelAudited {
		auditView = q.View
	}
	ep, audit, err := lw.Read(auditView)
	if err != nil {
		return nil, wrapErr("lineage", err)
	}
	anc := dir == DirAncestors

	var ev *engine.EpochView
	if level != LevelExact {
		if ev = ep.View(q.View); ev == nil {
			return nil, errf(engine.ErrUnknownView, "query",
				"no view %q on workflow %q", q.View, lw.ID())
		}
	}

	ans := newAnswer()
	ans.Workflow = lw.ID()
	ans.Run = q.Run
	ans.Artifact = q.Artifact
	ans.Level = level
	ans.Direction = dir
	ans.Version = ep.Version()

	gen := run.artGen[ai]
	if gen < 0 {
		// External input: no producing invocation, so its lineage is
		// empty at every level (witness included); view fields still
		// report the view's health.
		if level != LevelExact {
			ans.View = q.View
			ans.viewSoundVal = ev.Sound()
			ans.ViewSound = &ans.viewSoundVal
			if level == LevelAudited {
				ans.soundVal = true
				ans.Sound = &ans.soundVal
			}
		}
		return ans, nil
	}
	t := int(run.procTask[gen])
	ans.Producer = ep.TaskID(t)

	switch level {
	case LevelExact:
		run.fillExactLabels(ans, ep, t, anc)
	default:
		// Direction picks the index: forward quotient labels mark home's
		// descendants, reverse quotient labels mark its ancestors.
		v, vl := ev.View(), ev.Labels()
		if anc {
			vl = ev.RevLabels()
		}
		home := v.CompOf(t)
		ans.View = q.View
		ans.viewSoundVal = ev.Sound()
		ans.ViewSound = &ans.viewSoundVal

		// Mark home's row once, then every membership test is one bit
		// probe. Composite enumeration scans ascending, home excluded —
		// the order a closure row enumerates.
		mp := dag.ScratchMark(vl.N())
		mark := *mp
		vl.MarkRow(mark, home)
		for ci, k := 0, v.N(); ci < k; ci++ {
			if ci != home && vl.Marked(mark, ci) {
				ans.Composites = append(ans.Composites, v.Composite(ci).ID)
			}
		}
		run.fillViewLabels(ans, ep, v, vl, mark, home)
		dag.ReleaseMark(mp)

		if level == LevelAudited {
			var spur, miss []int32
			if anc {
				spur, miss = audit.SpuriousUpstream(home), audit.MissingUpstream(home)
			} else {
				spur, miss = audit.SpuriousDownstream(home), audit.MissingDownstream(home)
			}
			for _, ci := range spur {
				c := v.Composite(int(ci))
				ans.Spurious = append(ans.Spurious, c.ID)
				for _, m := range c.Members() {
					if run.inRun(m) {
						ans.SpuriousTasks = append(ans.SpuriousTasks, ep.TaskID(m))
					}
				}
			}
			for _, ci := range miss {
				ans.Missing = append(ans.Missing, v.Composite(int(ci)).ID)
			}
			ans.soundVal = len(spur) == 0 && len(miss) == 0
			ans.Sound = &ans.soundVal
		}
	}
	if q.Witness {
		ans.Witness = run.appendWitness(ans.Witness[:0], ai, ep)
	}
	return ans, nil
}

// fillExactLabels writes the exact-level tasks and artifacts: the run's
// invoked tasks (home excluded) whose mark bit places them in the
// answer, ascending, then this run's artifacts those tasks generated in
// artifact order — the set and order a closure row yields.
// Direction picks the index (forward labels mark descendants of home,
// reverse labels mark its ancestors); after the one MarkRow pass each
// candidate costs a single bit probe instead of an interval search.
func (r *Run) fillExactLabels(ans *Answer, ep *engine.ReadEpoch, home int, anc bool) {
	l := ep.Labels()
	if anc {
		l = ep.RevLabels()
	}
	mp := dag.ScratchMark(l.N())
	mark := *mp
	l.MarkRow(mark, home)
	for _, u32 := range r.invokedList {
		if u := int(u32); u != home && l.Marked(mark, u) {
			ans.Tasks = append(ans.Tasks, ep.TaskID(u))
		}
	}
	for i, g := range r.artGen {
		if g < 0 {
			continue
		}
		if u := int(r.procTask[g]); u != home && l.Marked(mark, u) {
			ans.Artifacts = append(ans.Artifacts, r.artifactID(int32(i)))
		}
	}
	dag.ReleaseMark(mp)
}

// fillViewLabels is fillExactLabels at the composite level, reusing the
// caller's already-marked scratch: a task is in the answer iff its
// composite's mark bit is set and it is not a member of the home
// composite itself, exactly like the ViewEngine task sets.
func (r *Run) fillViewLabels(ans *Answer, ep *engine.ReadEpoch, v *view.View, vl *dag.Labels, mark []uint64, home int) {
	for _, u32 := range r.invokedList {
		u := int(u32)
		if cu := v.CompOf(u); cu != home && vl.Marked(mark, cu) {
			ans.Tasks = append(ans.Tasks, ep.TaskID(u))
		}
	}
	for i, g := range r.artGen {
		if g < 0 {
			continue
		}
		if cu := v.CompOf(int(r.procTask[g])); cu != home && vl.Marked(mark, cu) {
			ans.Artifacts = append(ans.Artifacts, r.artifactID(int32(i)))
		}
	}
}

// inRun reports whether task u (an index of the possibly-grown live
// workflow) had an invocation in the run; tasks added after ingestion
// are outside the run by construction.
func (r *Run) inRun(u int) bool { return u < r.n && r.invoked.Test(u) }

// witnessScratch holds the per-walk marking state of appendWitness.
type witnessScratch struct {
	seenArt  []bool
	seenProc []bool
	queue    []int32
}

var witnessPool = sync.Pool{New: func() any { return new(witnessScratch) }}

// appendWitness appends the why-provenance of artifact ai to dst: a
// breadth-first backward walk over this run's wasGeneratedBy/used
// edges, O(edges), with pooled marking scratch. An invocation the run
// stores no ID for is named after its task, read from ep.
func (r *Run) appendWitness(dst []WhyEdge, ai int32, ep *engine.ReadEpoch) []WhyEdge {
	ws := witnessPool.Get().(*witnessScratch) //lint:allow poolret Put follows at the end of this function; the early returns are impossible
	na, np := len(r.artGen), len(r.procTask)
	if cap(ws.seenArt) < na {
		ws.seenArt = make([]bool, na)
	}
	if cap(ws.seenProc) < np {
		ws.seenProc = make([]bool, np)
	}
	seenArt := ws.seenArt[:na]
	seenProc := ws.seenProc[:np]
	clear(seenArt)
	clear(seenProc)
	named := r.namedInvocations()
	queue := append(ws.queue[:0], ai)
	seenArt[ai] = true
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		g := r.artGen[a]
		if g < 0 {
			continue
		}
		proc := ep.TaskID(int(r.procTask[g]))
		if named {
			proc = r.invocationID(g)
		}
		dst = append(dst, WhyEdge{Relation: "wasGeneratedBy", Process: proc, Artifact: r.artifactID(a)})
		if seenProc[g] {
			continue
		}
		seenProc[g] = true
		for _, ua := range r.usedArt[r.usedStart[g]:r.usedStart[g+1]] {
			dst = append(dst, WhyEdge{Relation: "used", Process: proc, Artifact: r.artifactID(ua)})
			if !seenArt[ua] {
				seenArt[ua] = true
				queue = append(queue, ua)
			}
		}
	}
	ws.queue = queue
	witnessPool.Put(ws)
	return dst
}

// BatchResult is the per-query outcome of LineageBatch; exactly one of
// Answer and Err is set.
type BatchResult struct {
	Answer *Answer       `json:"answer,omitempty"`
	Err    *engine.Error `json:"error,omitempty"`
}

// LineageBatch answers every query over the worker pool (the engine's
// batch fan-out machinery) and returns per-query results in input
// order. An unknown workflow fails the whole batch; everything else —
// unknown run, unknown artifact, bad level — fails only its own query.
// A canceled ctx marks the unclaimed remainder ErrCanceled.
func (s *Store) LineageBatch(ctx context.Context, workflowID string, qs []Query, workers int) ([]BatchResult, error) {
	if len(qs) == 0 {
		return nil, errf(engine.ErrBadInput, "lineage", "no queries")
	}
	if _, err := s.reg.Get(workflowID); err != nil {
		return nil, wrapErr("lineage", err)
	}
	if workers <= 0 {
		workers = s.workers
	}
	results := make([]BatchResult, len(qs))
	engine.FanOut(ctx, workers, len(qs),
		func(i int) {
			a, err := s.LineageCtx(ctx, workflowID, qs[i])
			if err != nil {
				results[i] = BatchResult{Err: wrapErr("lineage", err)}
				return
			}
			results[i] = BatchResult{Answer: a}
		},
		func(i int) {
			results[i] = BatchResult{Err: &engine.Error{
				Code: engine.ErrCanceled, Op: "lineage", Message: ctx.Err().Error(), Err: ctx.Err()}}
		})
	return results, nil
}

// ReleaseResults releases every answer of a batch back to the pool;
// callers use it after encoding a batch response.
func ReleaseResults(results []BatchResult) {
	for _, res := range results {
		res.Answer.Release()
	}
}
