package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"wolves/internal/bitset"
	"wolves/internal/core"
	"wolves/internal/dag"
	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/runs"
	"wolves/internal/server"
	"wolves/internal/soundness"
	"wolves/internal/storage"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// The traced run replays a workload's requests one at a time through the
// server's handler, with no socket. Each request gets a root span (the
// benchmark's own, carried in the request context); the journal wrapper
// records the storage calls made inside it as child spans. After each
// request a shadow call repeats the request's work one layer down on
// benchmark-owned state, and timed calls into the lower layers' public
// functions follow on benchmark-owned copies of the workflows. Nothing
// outside this package is instrumented.

type rootKey struct{}

// maxClampedShare is the share of requests whose server.self_us may come
// out negative (and be clamped to 0) before the metric is withheld. The
// median is the same with or without the clamp while fewer than half
// are clamped; a quarter leaves a margin.
const maxClampedShare = 0.25

// span is one recorded interval. Roots have parent -1; shadow spans
// belong to the request op but run after it, outside its root.
type span struct {
	op, id, parent int
	name           string
	start, dur     time.Duration
	shadow         bool
}

// rootSpan is the open root of the request being served.
type rootSpan struct {
	op, id  int
	start   time.Time
	end     time.Time
	storage time.Duration // summed child spans
}

// tracer collects spans and per-layer samples. The traced run is
// sequential, but journal calls arrive on the request's goroutine inside
// the handler, so every method locks.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	samples map[string][]float64
	ops     int
	ids     int
	escaped int // child spans that ended outside their root
	clamped int // requests whose self time came out negative
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: make(map[string][]float64)}
}

func (t *tracer) begin() *rootSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &rootSpan{op: t.ops, id: t.ids}
	t.ops++
	t.ids++
	return r
}

func (t *tracer) record(sp span) {
	sp.id = t.ids
	t.ids++
	t.spans = append(t.spans, sp)
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// child starts a storage span under the request's root; the returned
// func ends it. Calls outside a traced request (recovery) are not
// recorded.
func (t *tracer) child(ctx context.Context, name string) func() {
	root, _ := ctx.Value(rootKey{}).(*rootSpan)
	start := time.Now()
	return func() {
		if root == nil {
			return
		}
		d := time.Since(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		root.storage += d
		t.record(span{op: root.op, parent: root.id, name: name, start: start.Sub(t.epoch), dur: d})
		t.samples[name] = append(t.samples[name], us(d))
	}
}

// endRoot closes a request's root span and checks that its children
// stayed inside it.
func (t *tracer) endRoot(r *rootSpan, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].op == r.op; i-- {
		c := t.spans[i]
		if t.epoch.Add(c.start).Before(r.start) || t.epoch.Add(c.start+c.dur).After(r.end) {
			t.escaped++
		}
	}
	t.spans = append(t.spans, span{op: r.op, id: r.id, parent: -1, name: name,
		start: r.start.Sub(t.epoch), dur: r.end.Sub(r.start)})
}

// timed runs one shadow call, records it as a span of the op and as a
// sample of the named metric, and returns its duration.
func (t *tracer) timed(op int, name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.mu.Lock()
	t.record(span{op: op, parent: -1, name: name, start: start.Sub(t.epoch), dur: d, shadow: true})
	t.samples[name] = append(t.samples[name], us(d))
	t.mu.Unlock()
	return d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracedJournal records every journal call made inside a traced request
// as a storage child span. Errors pass through unchanged; the embedded
// store forwards everything else, engine.RecoverableJournal included.
type tracedJournal struct {
	*storage.Store
	tr *tracer
}

func (j *tracedJournal) Registered(ctx context.Context, st *engine.LiveState) error {
	defer j.tr.child(ctx, "storage.registered_us")()
	return j.Store.Registered(ctx, st)
}

func (j *tracedJournal) Committed(ctx context.Context, b *engine.AppliedBatch, st *engine.LiveState) error {
	defer j.tr.child(ctx, "storage.committed_us")()
	return j.Store.Committed(ctx, b, st)
}

func (j *tracedJournal) ViewAttached(ctx context.Context, st *engine.LiveState, vid string, v *view.View) error {
	defer j.tr.child(ctx, "storage.view_attached_us")()
	return j.Store.ViewAttached(ctx, st, vid, v)
}

func (j *tracedJournal) ViewDetached(ctx context.Context, st *engine.LiveState, vid string) error {
	defer j.tr.child(ctx, "storage.view_detached_us")()
	return j.Store.ViewDetached(ctx, st, vid)
}

func (j *tracedJournal) Deleted(ctx context.Context, id string) error {
	defer j.tr.child(ctx, "storage.deleted_us")()
	return j.Store.Deleted(ctx, id)
}

func (j *tracedJournal) RunIngested(ctx context.Context, wf, run string, doc []byte) (bool, error) {
	defer j.tr.child(ctx, "storage.run_ingested_us")()
	return j.Store.RunIngested(ctx, wf, run, doc)
}

func (j *tracedJournal) RunsIngested(ctx context.Context, wf string, ids []string, docs [][]byte) (bool, error) {
	defer j.tr.child(ctx, "storage.runs_ingested_us")()
	return j.Store.RunsIngested(ctx, wf, ids, docs)
}

func (j *tracedJournal) SnapshotWorkflow(ctx context.Context, st *engine.LiveState) error {
	defer j.tr.child(ctx, "storage.snapshot_us")()
	return j.Store.SnapshotWorkflow(ctx, st)
}

var _ engine.RecoverableJournal = (*tracedJournal)(nil)

// counters are the process's write-path and cache counters, read through
// their Go handles around each real request only: the shadow world bumps
// the same process-global counters, but never inside that window.
type counters struct {
	fsyncs, appendBytes, gcCount, snapBytes, epochs, auditHits, auditMisses uint64
	gcSum                                                                   float64
	patches                                                                 int64
}

func (in *instance) counters() counters {
	return counters{
		fsyncs: obs.MWALFsyncs.Value(), appendBytes: obs.MWALAppendBytes.Value(),
		gcCount: obs.MWALGroupCommit.Count(), gcSum: obs.MWALGroupCommit.Sum(),
		snapBytes: obs.MSnapshotBytes.Value(), epochs: obs.MEpochPublishes.Value(),
		auditHits: obs.MAuditCacheHits.Value(), auditMisses: obs.MAuditCacheMisses.Value(),
		patches: in.reg.LabelStats().Patches,
	}
}

// tally accumulates the traced run's counter deltas.
type tally struct {
	writes, mutates            int
	userBytes                  int64
	fsyncs, appendBytes, gcCnt uint64
	snapBytes, epochs          uint64
	auditHits, auditMisses     uint64
	gcSum                      float64
	patches                    int64
}

func (t *tally) add(o *op, a, b counters) {
	t.auditHits += b.auditHits - a.auditHits
	t.auditMisses += b.auditMisses - a.auditMisses
	if !o.kind.write() {
		return
	}
	t.writes++
	t.userBytes += int64(len(o.body))
	t.fsyncs += b.fsyncs - a.fsyncs
	t.appendBytes += b.appendBytes - a.appendBytes
	t.gcCnt += b.gcCount - a.gcCount
	t.gcSum += b.gcSum - a.gcSum
	t.snapBytes += b.snapBytes - a.snapBytes
	t.epochs += b.epochs - a.epochs
	if o.kind == kMutate {
		t.mutates++
		t.patches += b.patches - a.patches
	}
}

// tracedDoer serves ops through the instance's handler in-process, with
// a root span per request, then runs the op's shadow calls.
type tracedDoer struct {
	tr       *tracer
	in       *instance
	sh       *shadow
	tally    tally
	roots    map[string][]float64 // root span µs by latency class
	failures []string             // shadow calls that failed
}

func (d *tracedDoer) do(ctx context.Context, o *op, keep bool) (int, []byte, error) {
	root := d.tr.begin()
	req, err := newRequest(context.WithValue(ctx, rootKey{}, root), "http://wolvesbench", o)
	if err != nil {
		return 0, nil, err
	}
	rec := httptest.NewRecorder()
	before := d.in.counters()
	root.start = time.Now()
	d.in.h.ServeHTTP(rec, req)
	root.end = time.Now()
	after := d.in.counters()
	name := o.method + " " + o.kind.String()
	d.tr.endRoot(root, name)
	status, body := rec.Code, rec.Body.Bytes()
	if !ok(status, nil) {
		return status, body, nil
	}
	dur := root.end.Sub(root.start)
	d.tr.sample("server.request_us", us(dur))
	d.roots[o.kind.class()] = append(d.roots[o.kind.class()], us(dur))
	d.tally.add(o, before, after)
	direct, err := d.sh.replay(ctx, o, root.op)
	if err != nil {
		d.failures = append(d.failures, fmt.Sprintf("shadow %s %s: %v", o.method, o.path, err))
		return status, body, nil
	}
	self := dur - root.storage - direct
	if self < 0 {
		d.tr.mu.Lock()
		d.tr.clamped++
		d.tr.mu.Unlock()
		self = 0
	}
	d.tr.sample("server.self_us", us(self))
	return status, body, nil
}

// shadow is a benchmark-owned, in-memory copy of the server's state: a
// second engine, registry and run store with no journal, fed the same
// successful requests. Its calls time each request's work one layer
// below the server; copies holds the lower layers' structures per
// workflow for the calls below that.
type shadow struct {
	tr      *tracer
	eng     *engine.Engine
	reg     *engine.Registry
	runs    *runs.Store
	copies  map[string]*wfCopy
	workers int
	buf     []byte
}

func newShadow(tr *tracer) *shadow {
	eng := engine.New(engine.WithOptimalTimeout(2 * time.Second))
	reg := engine.NewRegistry(eng)
	return &shadow{tr: tr, eng: eng, reg: reg, runs: runs.New(reg, runs.WithWorkers(eng.Workers())),
		copies: make(map[string]*wfCopy), workers: eng.Workers()}
}

// replay repeats o's work on the shadow state and returns the time of
// the shadow call that stands for the layer below the server.
func (sh *shadow) replay(ctx context.Context, o *op, opID int) (time.Duration, error) {
	t := sh.tr
	var err error
	switch o.kind {
	case kLineage:
		level := o.q.Level
		if level == "" {
			level = runs.LevelExact
		}
		var ans *runs.Answer
		d := t.timed(opID, "runs.lineage_"+level+"_us", func() { ans, err = sh.runs.LineageCtx(ctx, o.wf, o.q) })
		if err != nil {
			return 0, err
		}
		d += t.timed(opID, "runs.encode_us", func() { sh.buf = ans.AppendJSON(sh.buf[:0]) })
		ans.Release()
		t.sample("runs.answer_kb", float64(len(sh.buf))/1024)
		return d, nil

	case kMutate:
		lw, err := sh.reg.Get(o.wf)
		if err != nil {
			return 0, err
		}
		m := engine.Mutation{Edges: o.mut.Edges}
		for _, mt := range o.mut.Tasks {
			m.Tasks = append(m.Tasks, workflow.Task{ID: mt.ID, Name: mt.Name, Kind: mt.Kind})
		}
		d := t.timed(opID, "engine.mutate_self_us", func() { _, err = lw.MutateCtx(ctx, m) })
		if err != nil {
			return 0, err
		}
		return d, sh.copies[o.wf].mutate(t, opID, m)

	case kIngestDoc:
		d := t.timed(opID, "runs.ingest_self_us", func() { _, err = sh.runs.IngestCtx(ctx, o.wf, o.doc[0]) })
		return d, err
	case kIngestNDJSON:
		d := t.timed(opID, "runs.ingest_self_us", func() {
			_, err = sh.runs.IngestNDJSONCtx(ctx, o.wf, bytes.NewReader(o.body))
		})
		return d, err
	case kIngestArray:
		d := t.timed(opID, "runs.ingest_self_us", func() { _, err = sh.runs.IngestBatchCtx(ctx, o.wf, o.doc) })
		return d, err

	case kPutWorkflow:
		return sh.register(ctx, o, opID)

	case kPutView:
		lw, err := sh.reg.Get(o.wf)
		if err != nil {
			return 0, err
		}
		d := t.timed(opID, "engine.register_self_us", func() {
			_, _, err = lw.AttachViewCtx(ctx, o.vid, func(wf *workflow.Workflow) (*view.View, error) {
				return view.DecodeJSON(wf, bytes.NewReader(o.body))
			})
		})
		if err != nil {
			return 0, err
		}
		return d, sh.copies[o.wf].attach(t, opID, o.vid, o.body, sh.workers)

	case kValidate:
		var req server.ValidateRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return 0, err
		}
		var wf *workflow.Workflow
		var v *view.View
		d := t.timed(opID, "workflow.decode_us", func() { wf, err = workflow.DecodeJSON(bytes.NewReader(req.Workflow)) })
		if err != nil {
			return 0, err
		}
		d += t.timed(opID, "view.decode_us", func() { v, err = view.DecodeJSON(wf, bytes.NewReader(req.View)) })
		if err != nil {
			return 0, err
		}
		d += t.timed(opID, "engine.validate_self_us", func() { _, err = sh.eng.Validate(ctx, wf, v) })
		return d, err

	case kCorrect:
		lw, err := sh.reg.Get(o.wf)
		if err != nil {
			return 0, err
		}
		d := t.timed(opID, "engine.correct_us", func() { _, _, _, err = lw.Correct(ctx, o.vid, core.Strong, nil) })
		return d, err

	case kReport:
		lw, err := sh.reg.Get(o.wf)
		if err != nil {
			return 0, err
		}
		d := t.timed(opID, "engine.report_us", func() { _, _, err = lw.Report(o.vid) })
		return d, err

	case kRunList:
		d := t.timed(opID, "runs.list_us", func() { _, err = sh.runs.Runs(o.wf) })
		return d, err
	}
	return 0, nil
}

// register replays a workflow PUT: decode, register and attach on the
// shadow registry, then build the lower layers' structures on a fresh
// copy.
func (sh *shadow) register(ctx context.Context, o *op, opID int) (time.Duration, error) {
	t := sh.tr
	var req server.RegisterRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return 0, err
	}
	var err error
	var wf *workflow.Workflow
	d := t.timed(opID, "workflow.decode_us", func() { wf, err = workflow.DecodeJSON(bytes.NewReader(req.Workflow)) })
	if err != nil {
		return 0, err
	}
	views := make([]*view.View, len(req.Views))
	for i, rv := range req.Views {
		d += t.timed(opID, "view.decode_us", func() { views[i], err = view.DecodeJSON(wf, bytes.NewReader(rv.View)) })
		if err != nil {
			return 0, err
		}
	}
	d += t.timed(opID, "engine.register_self_us", func() {
		var lw *engine.LiveWorkflow
		if lw, err = sh.reg.RegisterCtx(ctx, o.wf, wf); err != nil {
			return
		}
		for i, rv := range req.Views {
			v := views[i]
			if _, _, err = lw.AttachViewCtx(ctx, rv.ID, func(*workflow.Workflow) (*view.View, error) { return v, nil }); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	c, err := newCopy(t, opID, req, sh.workers)
	if err != nil {
		return 0, err
	}
	sh.copies[o.wf] = c
	return d, nil
}

// wfCopy is a benchmark-owned copy of one live workflow's lower-layer
// structures: the workflow, its incremental closure and oracle, and its
// views, kept in step with the server by applying the same requests.
type wfCopy struct {
	wf     *workflow.Workflow
	ic     *dag.IncrementalClosure
	oracle *soundness.Oracle
	views  map[string]*view.View
	order  []string
}

// newCopy decodes a registration again and times the closure, label and
// view builds a registration implies.
func newCopy(t *tracer, opID int, req server.RegisterRequest, workers int) (*wfCopy, error) {
	wf, err := workflow.DecodeJSON(bytes.NewReader(req.Workflow))
	if err != nil {
		return nil, err
	}
	g := wf.Graph()
	t.timed(opID, "dag.closure_build_us", func() { g.Reachability() })
	timeLabels(t, opID, "dag.labels_build_us", g)
	ic, err := dag.NewIncrementalClosure(g)
	if err != nil {
		return nil, err
	}
	c := &wfCopy{wf: wf, ic: ic, views: make(map[string]*view.View)}
	c.oracle = soundness.NewOracleWithClosure(wf, ic.Graph(), ic.Fwd())
	for _, rv := range req.Views {
		if err := c.attach(t, opID, rv.ID, rv.View, workers); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// attach times decoding a view, building its quotient graph and labels,
// and validating it.
func (c *wfCopy) attach(t *tracer, opID int, vid string, raw []byte, workers int) error {
	var v *view.View
	var err error
	t.timed(opID, "view.decode_us", func() { v, err = view.DecodeJSON(c.wf, bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	c.viewStructures(t, opID, v)
	t.timed(opID, "soundness.validate_us", func() { soundness.ValidateViewParallel(c.oracle, v, workers) })
	if _, ok := c.views[vid]; !ok {
		c.order = append(c.order, vid)
	}
	c.views[vid] = v
	return nil
}

// viewStructures times what an epoch publication builds per view: the
// quotient graph, then forward and reverse labels over it.
func (c *wfCopy) viewStructures(t *tracer, opID int, v *view.View) {
	var q *dag.Graph
	t.timed(opID, "view.quotient_us", func() { q = v.Graph() })
	timeLabels(t, opID, "dag.view_labels_build_us", q)
}

func timeLabels(t *tracer, opID int, name string, g *dag.Graph) {
	t.timed(opID, name, func() {
		dag.BuildLabels(g)
		dag.BuildLabels(g.Reversed())
	})
}

// mutate applies a batch the way the registry does, timing the closure
// update (which patches the task-level labels), per-view revalidation
// and structure rebuilds, and a from-scratch revalidation of every view
// for comparison.
func (c *wfCopy) mutate(t *tracer, opID int, m engine.Mutation) error {
	if len(m.Tasks) > 0 {
		if _, err := c.wf.ExtendTasks(m.Tasks); err != nil {
			return err
		}
	}
	dirty := bitset.New(c.wf.N())
	var err error
	t.timed(opID, "dag.closure_add_us", func() {
		if len(m.Tasks) > 0 {
			c.ic.Grow(len(m.Tasks))
		}
		for _, e := range m.Edges {
			u, _ := c.wf.Index(e[0])
			v, _ := c.wf.Index(e[1])
			if _, err = c.ic.AddEdge(u, v, dirty); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	c.wf.StructureChanged()
	c.oracle = soundness.NewOracleWithClosure(c.wf, c.ic.Graph(), c.ic.Fwd())
	for _, vid := range c.order {
		v := c.views[vid]
		oldK := v.N()
		if len(m.Tasks) > 0 {
			if v, err = v.ExtendSingletons(); err != nil {
				return err
			}
			c.views[vid] = v
		}
		dc := soundness.DirtyComposites(v, dirty, oldK)
		t.timed(opID, "soundness.revalidate_us", func() { soundness.Revalidate(c.oracle, v, dc) })
		c.viewStructures(t, opID, v)
	}
	t.timed(opID, "soundness.rebuild_us", func() {
		o := soundness.NewOracle(c.wf)
		for _, vid := range c.order {
			soundness.ValidateView(o, c.views[vid])
		}
	})
	return nil
}

// layerMetrics reduces the traced pass to the per-layer metrics: times
// are medians per call, ratios are totals over the pass.
func (d *tracedDoer) layerMetrics(labelBytes, docBytes, diskBytes int64, rec *storage.RecoveryStats, recover time.Duration) map[string]metric {
	t, tl := d.tr, d.tally
	out := make(map[string]metric)
	for _, def := range perLayer {
		if s := t.samples[def.Name]; len(s) > 0 {
			out[def.Name] = metric{Value: median(s), Unit: def.Unit, Samples: len(s)}
		}
	}
	ratio := func(name string, num, den float64, n int) {
		if den > 0 {
			out[name] = metric{Value: num / den, Unit: "ratio", Samples: n}
		}
	}
	if m, r := out["engine.mutate_self_us"], out["soundness.rebuild_us"]; r.Value > 0 {
		out["engine.mutate_over_rebuild"] = metric{Value: m.Value / r.Value, Unit: "ratio", Samples: m.Samples}
	}
	ratio("runs.audit_cache_hit_ratio", float64(tl.auditHits), float64(tl.auditHits+tl.auditMisses),
		int(tl.auditHits+tl.auditMisses))
	ratio("storage.fsyncs_per_write", float64(tl.fsyncs), float64(tl.writes), tl.writes)
	ratio("storage.wal_bytes_per_user_byte", float64(tl.appendBytes), float64(tl.userBytes), tl.writes)
	ratio("storage.snapshot_bytes_per_user_byte", float64(tl.snapBytes), float64(tl.userBytes), tl.writes)
	ratio("storage.disk_bytes_per_user_byte", float64(diskBytes), float64(tl.userBytes), tl.writes)
	ratio("engine.epoch_publishes_per_write", float64(tl.epochs), float64(tl.writes), tl.writes)
	ratio("engine.label_patches_per_mutate", float64(tl.patches), float64(tl.mutates), tl.mutates)
	if tl.gcCnt > 0 {
		out["storage.group_commit_mean"] = metric{Value: tl.gcSum / float64(tl.gcCnt), Unit: "records", Samples: int(tl.gcCnt)}
	}
	out["runs.doc_mb"] = metric{Value: float64(docBytes) / (1 << 20), Unit: "MiB", Samples: 1}
	out["engine.label_index_mb"] = metric{Value: float64(labelBytes) / (1 << 20), Unit: "MiB", Samples: 1}
	if recover > 0 {
		out["storage.recover_records_s"] = metric{Value: float64(rec.Replayed) / recover.Seconds(), Unit: "1/s",
			Samples: int(rec.Replayed)}
	}
	return out
}

// writeTrace writes the spans in the Chrome trace-event format, which
// chrome://tracing and Perfetto open: requests on thread 1, their shadow
// calls on thread 2, every event tagged with its op.
func (t *tracer) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, sp := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		tid := 1
		if sp.shadow {
			tid = 2
		}
		ev := map[string]any{"name": sp.name, "ph": "X", "pid": 1, "tid": tid,
			"ts": us(sp.start), "dur": us(sp.dur),
			"args": map[string]int{"op": sp.op, "span": sp.id, "parent": sp.parent}}
		w.Write(mustJSON(ev))
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
