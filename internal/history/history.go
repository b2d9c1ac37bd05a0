// Package history is the model-checked history behind the randomized
// equivalence tests. A seeded generator (gen.go) draws each operation
// from the model's state; the model (model.go) recomputes every answer
// from scratch; the checker (this file) applies each operation to the
// layers under test and compares every observable answer after each
// step. A failed test logs the seed and the operations up to the
// failing step. Only tests import it.
package history

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"wolves/internal/bitset"
	"wolves/internal/core"
	"wolves/internal/dag"
	"wolves/internal/engine"
	"wolves/internal/runs"
	"wolves/internal/soundness"
	"wolves/internal/storage"
	"wolves/internal/storage/vfs"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// Layer selects what a history runs against; each layer past DAG
// includes the ones before it.
type Layer int

const (
	DAG      Layer = iota // a dag.IncrementalClosure alone
	Registry              // an engine.Registry
	Runs                  // the registry and a runs.Store
	Durable               // both, journaled to a storage.Store on a vfs.FaultFS
)

// Kind is an operation kind.
type Kind int

const (
	Register   Kind = iota // register the workflow, or replace it
	Mutate                 // a batch of edges
	Grow                   // a batch of new tasks, usually wired to the graph
	Attach                 // attach a view
	Detach                 // detach a view
	Ingest                 // ingest runs: one JSON document, one NDJSON stream or a batch
	Lineage                // every run query on one artifact, and LiveWorkflow.Lineage
	Correct                // correct a view
	Checkpoint             // checkpoint the store
	Crash                  // hard kill, then recover the data directory
)

var kindNames = [...]string{"register", "mutate", "grow", "attach", "detach", "ingest", "lineage", "correct", "checkpoint", "crash"}

const (
	wfID      = "wf" // every history registers its workflow under this ID
	faultRate = 0.02 // Durable: the fault probability of each file operation
)

// Op is one step of a history; a kind leaves the fields it does not use
// zero.
type Op struct {
	Kind  Kind
	WF    *workflow.Workflow // Register; the layers under test get clones
	Tasks []string           // Grow: new tasks; Lineage: tasks for LiveWorkflow.Lineage
	Edges [][2]string        // Mutate, Grow
	View  string             // Attach, Detach, Correct
	Comps [][]string         // Attach: each composite's ID, then its members
	Runs  []*runDoc          // Ingest
	Form  int                // Ingest: 0 JSON, 1 NDJSON, 2 batch; Correct: core.Criterion
	Run   string             // Lineage
	Art   string             // Lineage
}

// Config picks a history's layers, op mix and sizes.
type Config struct {
	Layer Layer
	Seed  int64
	Mix   map[Kind]int // weighs the kinds drawn after the first Register
	Tasks [2]int       // task count range of a registered workflow
	// DAG: Closure builds the closure under test, and Check compares it
	// with a fresh Reachability of its graph.
	Closure func(*dag.Graph) (*dag.IncrementalClosure, error)
	Check   func(*dag.IncrementalClosure)
}

// History is one seeded history under check.
type History struct {
	t   testing.TB
	cfg Config
	rng *rand.Rand
	m   model
	ops []Op
	seq int // fresh IDs

	ic  *dag.IncrementalClosure
	reg *engine.Registry
	rs  *runs.Store
	st  *storage.Store
	ffs *vfs.FaultFS
	dir string

	// Durable: each applied prefix since the last recovery, as a digest
	// and as the model state it stands for, and the last acknowledged one.
	digests []string
	states  []state
	acked   int

	Injected       uint64 // faults injected by the file systems a Crash replaced
	FalsePositives int    // LiveWorkflow.Lineage results with false positives
}

// Run checks a Register, length operations drawn from the mix and, for
// a Durable history, a Crash.
func Run(t testing.TB, cfg Config, length int) *History {
	t.Helper()
	h := New(t, cfg)
	h.Step(Register)
	if cfg.Layer == Durable {
		h.ffs.Chaos(cfg.Seed, faultRate) // the registration is the fault-free baseline
	}
	for range length {
		h.Step(h.pick())
	}
	if cfg.Layer == Durable {
		h.Step(Crash)
	}
	return h
}

// New starts an empty history.
func New(t testing.TB, cfg Config) *History {
	h := &History{t: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	t.Cleanup(h.logIfFailed)
	if cfg.Layer == Durable {
		h.dir = t.TempDir()
		h.open()
	} else if cfg.Layer > DAG {
		h.reg = engine.NewRegistry(engine.New(engine.WithWorkers(2)))
		h.rs = runs.New(h.reg)
	}
	return h
}

// logIfFailed logs the seed and the operations of a failed test.
func (h *History) logIfFailed() {
	if !h.t.Failed() {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "history (layer %d, seed %d); a history is a function of its seed, so rerunning replays it\n", h.cfg.Layer, h.cfg.Seed)
	for i, op := range h.ops {
		fmt.Fprintf(&b, "%4d %s %v %v %s %d %s %s\n", i, kindNames[op.Kind], op.Tasks, op.Edges, op.View, len(op.Runs), op.Run, op.Art)
	}
	h.t.Log(b.String())
}

func (h *History) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("step %d: %s", len(h.ops)-1, fmt.Sprintf(format, args...))
}

// Live returns the registered workflow under test.
func (h *History) Live() *engine.LiveWorkflow {
	lw, err := h.reg.Get(wfID)
	if err != nil {
		h.fatalf("%v", err)
	}
	return lw
}

// Step generates one operation of kind k and checks it.
func (h *History) Step(k Kind) { h.Do(h.gen(k)) }

// Do applies op to the model and to the layers under test and compares
// every answer.
func (h *History) Do(op Op) {
	h.t.Helper()
	h.ops = append(h.ops, op)
	defer func() {
		if r := recover(); r != nil {
			h.fatalf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	pre := h.m.snapshot()
	want, changed := h.m.apply(op)
	err := h.apply(op)
	var ee *engine.Error
	got := success
	if errors.As(err, &ee) {
		got = ee.Code
	} else if err != nil {
		got = engine.ErrInternal
	}
	if got == engine.ErrDegraded && h.cfg.Layer == Durable {
		// A journal fault leaves the operation applied in memory or not;
		// the state shows which.
		if h.observed() != h.m.expected() {
			h.m.restore(pre)
			changed = false
		}
	} else if got != want {
		h.fatalf("answered %q (%v), the model says %q", got, err, want)
	}
	if h.cfg.Layer == DAG {
		g := h.ic.Graph()
		if g.N() != len(h.m.tasks) || g.M() != len(h.m.edges) ||
			slices.ContainsFunc(h.m.edges, func(e [2]int) bool { return !g.HasEdge(e[0], e[1]) }) {
			h.fatalf("the graph's tasks and edges differ from the model's")
		}
		return
	}
	h.checkState()
	if h.cfg.Layer == Durable && changed {
		h.digests, h.states = append(h.digests, h.digest()), append(h.states, h.m.snapshot())
		if err == nil {
			h.acked = len(h.digests) - 1
		}
	}
	if h.reg.Degraded() {
		time.Sleep(300 * time.Microsecond) // give the probe loop air
	}
}

// apply runs op against the layers under test.
func (h *History) apply(op Op) (err error) {
	ctx := h.t.Context()
	switch {
	case h.cfg.Layer == DAG && op.Kind == Register:
		h.ic, err = h.cfg.Closure(op.WF.Clone().Graph())
		h.cfg.Check(h.ic)
		return err
	case h.cfg.Layer == DAG:
		return h.dagMutate(op)
	case op.Kind == Register:
		_, err = h.reg.RegisterCtx(ctx, wfID, op.WF.Clone())
		return err
	}
	switch lw := h.Live(); op.Kind {
	case Mutate, Grow:
		m := engine.Mutation{Edges: op.Edges}
		for _, id := range op.Tasks {
			m.Tasks = append(m.Tasks, workflow.Task{ID: id})
		}
		_, err = lw.MutateCtx(ctx, m)
	case Attach:
		_, _, err = lw.AttachViewCtx(ctx, op.View, func(wf *workflow.Workflow) (*view.View, error) {
			return buildView(wf, op.View, op.Comps, nil)
		})
	case Detach:
		err = lw.DetachViewCtx(ctx, op.View)
	case Ingest:
		var docs [][]byte
		for _, r := range op.Runs {
			docs = append(docs, r.json())
		}
		switch op.Form {
		case 0:
			_, err = h.rs.IngestCtx(ctx, wfID, docs[0])
		case 1:
			_, err = h.rs.IngestNDJSONCtx(ctx, wfID, bytes.NewReader(op.Runs[0].ndjson()))
		default:
			_, err = h.rs.IngestBatchCtx(ctx, wfID, docs)
		}
	case Lineage:
		h.lineage(lw, op)
	case Correct:
		h.correct(lw, op)
	case Checkpoint:
		_ = h.st.Checkpoint(h.reg) // a fault may fail it; no answer may change, which checkState pins
	case Crash:
		h.crash()
	}
	return err
}

// dagMutate applies a batch to the closure the way LiveWorkflow.MutateCtx
// does — grow, insert edge by edge, roll back at a cycle — checking the
// closure after every step.
func (h *History) dagMutate(op Op) error {
	edges, ok := h.m.resolve(op)
	if !ok {
		return &engine.Error{Code: engine.ErrBadInput}
	}
	n0, applied := h.ic.N(), [][2]int(nil)
	if len(op.Tasks) > 0 {
		h.ic.Grow(len(op.Tasks))
		h.cfg.Check(h.ic)
	}
	for _, e := range edges {
		cycle, dirty := h.ic.Fwd().Reaches(e[1], e[0]), bitset.New(h.ic.N())
		added, err := h.ic.AddEdge(e[0], e[1], dirty)
		if cycle != errors.Is(err, dag.ErrCycle) {
			h.fatalf("AddEdge%v = %v, yet the closure says cycle=%v", e, err, cycle)
		}
		if err != nil {
			h.ic.Rollback(n0, applied)
			h.cfg.Check(h.ic)
			return &engine.Error{Code: engine.ErrCycleRejected, Err: err}
		}
		if added {
			if !dirty.Test(e[0]) || !dirty.Test(e[1]) {
				h.fatalf("dirty set %v misses an endpoint of %v", dirty, e)
			}
			applied = append(applied, e)
		}
		h.cfg.Check(h.ic)
	}
	return nil
}

// observed renders the workflow's info and run IDs under test in the
// form model.expected renders the model's.
func (h *History) observed() string {
	info, err := h.Live().Info()
	if err != nil {
		h.fatalf("%v", err)
	}
	ids, _ := h.rs.SnapshotRuns(wfID)
	return fmt.Sprint(info, ids)
}

// checkState compares the workflow, its views and runs and every
// maintained report with the model.
func (h *History) checkState() {
	if got, want := h.observed(), h.m.expected(); got != want {
		h.fatalf("state\n got: %s\nwant: %s", got, want)
	}
	for _, vd := range h.m.views {
		rep, _, err := h.Live().Report(vd.id)
		if want := h.m.view(vd.id).report; err != nil || !reflect.DeepEqual(rep, want) {
			h.fatalf("view %s: maintained report (%v)\n got: %+v\nwant: %+v", vd.id, err, rep, want)
		}
	}
}

// lineage compares each view's epoch audit with the reference audit,
// LiveWorkflow.Lineage of op's tasks through each view, and every
// level × direction × witness answer on op's artifact on the wire.
func (h *History) lineage(lw *engine.LiveWorkflow, op Op) {
	vids := []string{""}
	for _, vd := range h.m.views {
		vids = append(vids, vd.id)
		if ep, a, err := lw.Read(vd.id); err != nil || ep.Version() != h.m.version {
			h.fatalf("Read(%s) at version %d: %v", vd.id, h.m.version, err)
		} else if err := h.m.lineageView(vd.id).audit.Diff(a); err != nil {
			h.fatalf("view %s: epoch audit: %v", vd.id, err)
		}
		for _, task := range op.Tasks {
			got, err := lw.Lineage(vd.id, task)
			gotJSON, _ := json.Marshal(got)
			if wantJSON, _ := json.Marshal(h.m.viewLineage(vd.id, task)); err != nil || !bytes.Equal(gotJSON, wantJSON) {
				h.fatalf("Lineage(%s, %s) (%v)\n got: %s\nwant: %s", vd.id, task, err, gotJSON, wantJSON)
			}
			if len(got.FalsePositives) > 0 {
				h.FalsePositives++
			}
		}
	}
	for _, vid := range vids {
		levels := []string{runs.LevelView, runs.LevelAudited}
		if vid == "" {
			levels = []string{""} // the default level, exact
		}
		for _, level := range levels {
			for _, q := range []runs.Query{{}, {Direction: runs.DirDescendants}, {Witness: true}} {
				q.Run, q.Artifact, q.Level, q.View = op.Run, op.Art, level, vid
				got, err := h.rs.LineageCtx(h.t.Context(), wfID, q)
				if err != nil {
					h.fatalf("%+v: %v", q, err)
				}
				if gotJSON, wantJSON := got.AppendJSON(nil), h.m.answer(q).AppendJSON(nil); !bytes.Equal(gotJSON, wantJSON) {
					h.fatalf("%+v\n got: %s\nwant: %s", q, gotJSON, wantJSON)
				}
				got.Release()
			}
		}
	}
}

// correct compares a live correction with one over a fresh oracle of
// the model's workflow.
func (h *History) correct(lw *engine.LiveWorkflow, op Op) {
	vc, rep, _, err := lw.Correct(h.t.Context(), op.View, core.Criterion(op.Form), nil)
	v := h.m.view(op.View).v
	want, werr := engine.New().CorrectWithOracle(h.t.Context(), h.m.oracle, v, core.Criterion(op.Form), nil)
	if err != nil || werr != nil {
		h.fatalf("Correct(%s): %v; reference: %v", op.View, err, werr)
	}
	wantRep := soundness.ValidateView(h.m.oracle, want.Corrected)
	if !reflect.DeepEqual(Comps(vc.Corrected), Comps(want.Corrected)) || !rep.Sound || !reflect.DeepEqual(rep, wantRep) {
		h.fatalf("Correct(%s)\n got: %v %+v\nwant: %v %+v", op.View, Comps(vc.Corrected), rep, Comps(want.Corrected), wantRep)
	}
}

// Comps lists v's composites, each as its ID followed by its members.
func Comps(v *view.View) [][]string {
	out := make([][]string, v.N())
	for ci := range out {
		out[ci] = append([]string{v.Composite(ci).ID}, v.MemberIDs(ci)...)
	}
	return out
}

// open opens the data directory on a fresh fault file system and
// recovers it into a fresh registry and run store, the way wolvesd
// boots. Batch fsync makes an acknowledged operation durable; small
// segments and frequent snapshots multiply the faultable I/O.
func (h *History) open() {
	h.ffs = vfs.NewFault(vfs.OS())
	st, err := storage.Open(h.dir, storage.Options{FS: h.ffs, Fsync: storage.FsyncBatch, SegmentBytes: 8 << 10, SnapshotEvery: 16})
	h.st, h.reg = st, engine.NewRegistry(engine.New(engine.WithWorkers(2)), engine.WithProbeBackoff(time.Millisecond, 10*time.Millisecond))
	h.rs = runs.New(h.reg)
	if err == nil {
		st.SetRunProvider(h.rs)
		_, err = st.RecoverWithRuns(h.reg, h.rs)
	}
	if err != nil {
		h.fatalf("open: %v", err)
	}
	h.reg.SetJournal(st)
	h.rs.SetJournal(st)
}

// crash freezes the file system, abandons the store without a
// checkpoint and recovers the directory, with faults on again. The
// recovered state must be an applied prefix at or past the last
// acknowledged one; the model rewinds to it.
func (h *History) crash() {
	for op := vfs.OpOpen; op <= vfs.OpMkdir; op++ {
		h.ffs.Deny(op, vfs.Fault{})
	}
	_ = h.st.Close() // the frozen file system fails it; the crash is the point
	h.Injected += h.ffs.Injected()
	h.open()
	h.ffs.Chaos(h.cfg.Seed+int64(len(h.ops)), faultRate)
	got, idx := h.digest(), -1
	for k, d := range h.digests {
		if d == got {
			idx = k
		}
	}
	if idx < h.acked {
		h.fatalf("recovered prefix %d of %d, last acknowledged %d", idx, len(h.digests), h.acked)
	}
	h.m.restore(h.states[idx])
	h.digests, h.states, h.acked = h.digests[idx:idx+1], h.states[idx:idx+1], 0
}

// digest hashes what a recovery must restore: the workflow's info, its
// canonical workflow and view documents, and the canonical run
// documents.
func (h *History) digest() string {
	lw, sum := h.Live(), sha256.New()
	ids, docs := h.rs.SnapshotRuns(wfID)
	info, err := lw.Info()
	err = errors.Join(err, lw.State(func(st *engine.LiveState) error {
		return json.NewEncoder(sum).Encode([]any{info, st.Workflow, st.Views, ids, docs})
	}))
	if err != nil {
		h.fatalf("digest: %v", err)
	}
	return string(sum.Sum(nil))
}
