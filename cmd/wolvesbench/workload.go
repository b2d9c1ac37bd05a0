package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"wolves/internal/gen"
	"wolves/internal/runs"
	"wolves/internal/server"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// kind is what one request does. It fixes the route, the latency class
// the request is reported under and the shadow calls the traced run
// makes after it.
type kind uint8

const (
	kLineage kind = iota
	kMutate
	kIngestDoc
	kIngestNDJSON
	kIngestArray
	kPutWorkflow
	kPutView
	kValidate
	kCorrect
	kReport  // check: POST …/views/{vid}/validate
	kRunList // check: GET …/runs
)

var kindNames = [...]string{"lineage", "mutate", "ingest-doc", "ingest-ndjson", "ingest-array",
	"put-workflow", "put-view", "validate", "correct", "report", "run-list"}

func (k kind) String() string { return kindNames[k] }

// Latency classes. register covers both the workflow PUT and the view PUT.
const (
	cLineage  = "lineage"
	cMutate   = "mutate"
	cIngest   = "ingest"
	cRegister = "register"
	cValidate = "validate"
	cCorrect  = "correct"
	cCheck    = "check"
)

var classOrder = []string{cLineage, cMutate, cIngest, cRegister, cValidate, cCorrect}

func (k kind) class() string {
	switch k {
	case kLineage:
		return cLineage
	case kMutate:
		return cMutate
	case kIngestDoc, kIngestNDJSON, kIngestArray:
		return cIngest
	case kPutWorkflow, kPutView:
		return cRegister
	case kValidate:
		return cValidate
	case kCorrect:
		return cCorrect
	}
	return cCheck
}

// write reports whether the request changes server state (and so is
// journaled).
func (k kind) write() bool {
	switch k {
	case kMutate, kIngestDoc, kIngestNDJSON, kIngestArray, kPutWorkflow, kPutView:
		return true
	}
	return false
}

// op is one request, encoded before any timed phase starts.
type op struct {
	kind   kind
	method string
	path   string
	body   []byte
	ndjson bool
	// wf is the live workflow the request targets ("" for stateless
	// requests). An affine op must reach the server in schedule order with
	// the other affine ops of its workflow, so it always runs on the lane
	// (open loop) or client (closed loop) that wf hashes to.
	wf     string
	affine bool
	// once marks a request that fails if repeated (a mutate adding
	// tasks); a closed-loop client cycling its share skips it.
	once bool
	// due is when the request is due, measured from the start of the open
	// loop.
	due time.Duration

	// Inputs the traced run's shadow calls and the checks need.
	q   runs.Query           // kLineage
	mut server.MutateRequest // kMutate
	vid string               // kPutView, kCorrect, kReport
	doc [][]byte             // kIngest*: the run documents in the body
}

// spec sizes one workload run. defaultSpec gives the sizes the benchmark
// measures; tests build smaller specs directly.
type spec struct {
	Workload string
	Seed     int64

	Open     time.Duration // open-loop phase
	Closed   time.Duration // closed-loop phase
	Setups   int           // set-ups per run; setup_s is their median
	Restarts int           // recoveries per run; recover_s is their median
	Trace    bool          // run the traced pass instead of the timed phases
	TraceFor time.Duration // traced pass: replay the open-loop ops due before this

	Workflows int     // live workflows registered at set-up (onboard: live IDs)
	Tasks     int     // tasks per workflow (onboard: the largest pool workflow)
	Runs      int     // runs ingested per workflow at set-up
	RunPool   int     // ingest-heavy: run IDs per workflow the ingests cycle through
	Pool      int     // onboard: distinct workflows in the stateless validate pool
	Anchors   int     // onboard: small live IDs with a run, never re-registered
	Edits     int     // mutate batches per workflow at set-up
	ReadRate  float64 // open loop: reads (requests not in a workflow's write order) per second
	WriteRate float64 // open loop: workflow-ordered requests per second
	ClosedOps int     // closed loop: ops generated; clients cycle them if they run out
}

// workloads lists the benchmark's workloads in the order they are
// documented.
var workloads = []string{"serve-read", "edit-heavy", "ingest-heavy", "onboard"}

// defaultSpec returns the measured configuration of a workload for a run
// of the given length: three quarters open loop, one quarter closed loop.
func defaultSpec(workload string, seed int64, seconds int, trace bool) (spec, error) {
	total := time.Duration(seconds) * time.Second
	sp := spec{
		Workload: workload, Seed: seed,
		Open: total * 3 / 4, Closed: total / 4,
		Setups: 3, Restarts: 1, Trace: trace, Edits: 4,
	}
	if trace {
		sp.Setups, sp.Restarts = 1, 1
	}
	switch workload {
	case "serve-read":
		sp.Workflows, sp.Tasks, sp.Runs = 8, 1024, 64
		sp.ReadRate, sp.ClosedOps = 1500, 40000 // reads: clients may cycle them
		sp.TraceFor = 5000 * time.Second / 1500
	case "edit-heavy":
		sp.Workflows, sp.Tasks, sp.Runs = 2, 4096, 16
		// 20 mutate batches/s halved once: the registry's periodic
		// task-label rebuilds (hundreds of ms under the write lock at
		// n=4096) leave a growing backlog at 20/s.
		sp.ReadRate, sp.WriteRate, sp.ClosedOps = 300, 10, 24000
		sp.TraceFor = 150 * time.Second / 10
	case "ingest-heavy":
		sp.Workflows, sp.Tasks, sp.Runs, sp.RunPool = 4, 1024, 16, 256
		sp.ReadRate, sp.WriteRate, sp.ClosedOps = 200, 200, 24000
		sp.TraceFor = 1000 * time.Second / 200
	case "onboard":
		sp.Workflows, sp.Tasks, sp.Pool, sp.Anchors = 32, 1024, 192, 8
		sp.ReadRate, sp.WriteRate, sp.ClosedOps = 24*0.55, 24*0.45, 8000
		sp.TraceFor = 200 * time.Second / 24
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return sp, nil
}

// runModel is what the generator knows about one run document: enough to
// compute a from-scratch lineage reference.
type runModel struct {
	arts     []string          // artifact IDs in document order
	producer map[string]string // artifact ID → producing task ID
	invoked  map[string]bool   // task IDs with an invocation
}

func (m *runModel) add(art, task string) {
	m.arts = append(m.arts, art)
	m.producer[art], m.invoked[task] = task, true
}

// checkQuery is one lineage query the checks compare with a reference.
type checkQuery struct {
	wf string
	q  runs.Query
}

// plan is every input of one workload run, generated from the seed.
type plan struct {
	sp      spec
	setup   [][]op // per live workflow, in order; workflows set up in parallel
	open    []op   // open-loop schedule, ascending by due
	closed  []op   // closed-loop stream
	checks  []checkQuery
	runDocs map[string]*runModel // key runKey(wf, run)
}

func runKey(wf, run string) string { return wf + "\x00" + run }

// newPlan generates a workload's inputs. The same spec always gives the
// same plan.
func newPlan(sp spec) (*plan, error) {
	g := &planner{sp: sp, rng: rand.New(rand.NewSource(sp.Seed)),
		p: &plan{sp: sp, runDocs: make(map[string]*runModel)}}
	switch sp.Workload {
	case "serve-read":
		g.serveRead()
	case "edit-heavy":
		g.editHeavy()
	case "ingest-heavy":
		g.ingestHeavy()
	case "onboard":
		g.onboard()
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.Workload)
	}
	return g.p, nil
}

// planner holds the generator state shared by the workload builders.
type planner struct {
	sp  spec
	rng *rand.Rand
	p   *plan
}

// live is one live workflow as the generator tracks it.
type live struct {
	id    string
	wf    *workflow.Workflow
	views []string // view IDs queried by view-level lineage
	ed    *editor
	runs  []string // run IDs ingested at set-up
}

// layered generates the layered workflow every workload but onboard
// serves: 16 layers, adjacent-layer edge probability 0.05.
func (g *planner) layered(id string, n int) *workflow.Workflow {
	return gen.Layered(gen.LayeredConfig{Name: id, Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: g.rng.Int63()})
}

// register builds the PUT /v1/workflows/{id} op for wf with views.
func (g *planner) register(id string, wf *workflow.Workflow, views map[string]*view.View, order []string) op {
	req := server.RegisterRequest{Workflow: mustJSON(wf)}
	for _, vid := range order {
		req.Views = append(req.Views, server.RegisterView{ID: vid, View: mustJSON(views[vid])})
	}
	return op{kind: kPutWorkflow, method: "PUT", path: "/v1/workflows/" + id,
		body: mustJSON(req), wf: id, affine: true}
}

// standardLive registers a layered workflow with an interval view "iv"
// (k = n/16) and, when unsound is set, an InjectUnsound view "uv"; then
// applies the set-up edits.
func (g *planner) standardLive(id string, n int, unsound bool) (*live, []op) {
	wf := g.layered(id, n)
	k := n / 16
	views := map[string]*view.View{"iv": gen.IntervalView(wf, k, "iv")}
	order := []string{"iv"}
	if unsound {
		views["uv"] = gen.InjectUnsound(gen.IntervalView(wf, k, "uv"), max(1, k/16), g.rng.Int63())
		order = append(order, "uv")
	}
	lv := &live{id: id, wf: wf, views: order, ed: newEditor(wf, g.rng.Int63())}
	ops := []op{g.register(id, wf, views, order)}
	return lv, append(ops, g.setupEdits(lv)...)
}

// setupEdits are the edge-only mutate batches every live workflow gets at
// set-up: the workflows served have been edited since registration.
func (g *planner) setupEdits(lv *live) []op {
	var ops []op
	for i := 0; i < g.sp.Edits; i++ {
		edges := 1
		if i%2 == 1 {
			edges = 8
		}
		ops = append(ops, lv.ed.batch(lv.id, edges, 0))
	}
	return ops
}

// windowRun is a run invoking a window of size consecutive tasks (in
// topological order) as a chain: each task produces one artifact that the
// next task uses.
func (g *planner) windowRun(lv *live, run string, start, size int) []byte {
	order := lv.ed.order
	n := len(order)
	if size > n {
		size = n
	}
	if start+size > n {
		start = n - size
	}
	doc := runDoc{Run: run}
	m := &runModel{producer: make(map[string]string, size), invoked: make(map[string]bool, size)}
	for k := 0; k < size; k++ {
		task := order[start+k]
		art := run + "." + strconv.Itoa(k)
		doc.Artifacts = append(doc.Artifacts, runArtifact{ID: art, GeneratedBy: task})
		if k > 0 {
			doc.Used = append(doc.Used, runUsed{Process: task, Artifact: run + "." + strconv.Itoa(k-1)})
		}
		m.add(art, task)
	}
	g.p.runDocs[runKey(lv.id, run)] = m
	return mustJSON(doc)
}

// fullRun is one complete execution: an artifact per task, used edges
// along every workflow edge.
func (g *planner) fullRun(lv *live, run string) []byte {
	wf := lv.wf
	doc := runDoc{Run: run}
	m := &runModel{producer: make(map[string]string, wf.N()), invoked: make(map[string]bool, wf.N())}
	for i := 0; i < wf.N(); i++ {
		id := wf.Task(i).ID
		doc.Artifacts = append(doc.Artifacts, runArtifact{ID: "a" + id, GeneratedBy: id})
		m.add("a"+id, id)
	}
	wf.Graph().Edges(func(u, v int) {
		doc.Used = append(doc.Used, runUsed{Process: wf.Task(v).ID, Artifact: "a" + wf.Task(u).ID})
	})
	g.p.runDocs[runKey(lv.id, run)] = m
	return mustJSON(doc)
}

func ingestOp(wf string, doc []byte) op {
	return op{kind: kIngestDoc, method: "POST", path: "/v1/workflows/" + wf + "/runs",
		body: doc, wf: wf, affine: true, doc: [][]byte{doc}}
}

// lineage draws one lineage query against run: levels 40% exact, 30%
// view, 30% audited; directions 80% ancestors; 5% ask for a witness.
func (g *planner) lineage(lv *live, run string) op {
	m := g.p.runDocs[runKey(lv.id, run)]
	q := runs.Query{Run: run, Artifact: m.arts[g.rng.Intn(len(m.arts))], Level: runs.LevelExact,
		Direction: runs.DirAncestors}
	switch r := g.rng.Float64(); {
	case r < 0.3:
		q.Level = runs.LevelView
	case r < 0.6:
		q.Level = runs.LevelAudited
	}
	if q.Level != runs.LevelExact {
		q.View = lv.views[g.rng.Intn(len(lv.views))]
	}
	if g.rng.Float64() < 0.2 {
		q.Direction = runs.DirDescendants
	} else if g.rng.Float64() < 0.05/0.8 {
		q.Witness = true // witnesses exist for ancestors only
	}
	return lineageOp(lv.id, q)
}

func lineageOp(wf string, q runs.Query) op {
	v := url.Values{}
	v.Set("artifact", q.Artifact)
	v.Set("level", q.Level)
	if q.View != "" {
		v.Set("view", q.View)
	}
	v.Set("direction", q.Direction)
	if q.Witness {
		v.Set("witness", "1")
	}
	return op{kind: kLineage, method: "GET", wf: wf, q: q,
		path: "/v1/workflows/" + wf + "/runs/" + q.Run + "/lineage?" + v.Encode()}
}

// addChecks draws the lineage queries the checks compare with a
// from-scratch reference: every level and both directions, over runs
// that exist for the whole run.
func (g *planner) addChecks(lives []*live, n int) {
	levels := []string{runs.LevelExact, runs.LevelView, runs.LevelAudited}
	for i := 0; i < n; i++ {
		lv := lives[g.rng.Intn(len(lives))]
		if len(lv.runs) == 0 {
			continue
		}
		run := lv.runs[g.rng.Intn(len(lv.runs))]
		m := g.p.runDocs[runKey(lv.id, run)]
		q := runs.Query{Run: run, Artifact: m.arts[g.rng.Intn(len(m.arts))],
			Level: levels[i%3], Direction: runs.DirAncestors}
		if i%4 == 3 {
			q.Direction = runs.DirDescendants
		}
		if q.Level != runs.LevelExact {
			q.View = lv.views[i%len(lv.views)]
		}
		g.p.checks = append(g.p.checks, checkQuery{wf: lv.id, q: q})
	}
}

// stream merges a read stream at readRate and a write stream at
// writeRate, each at fixed spacing, into one schedule d long, ascending
// by due.
func stream(d time.Duration, readRate, writeRate float64, read, write func(due time.Duration) op) []op {
	var ops []op
	nr := int(readRate * d.Seconds())
	nw := int(writeRate * d.Seconds())
	at := func(i int, rate float64) time.Duration {
		return time.Duration(float64(i) / rate * float64(time.Second))
	}
	for i, j := 0, 0; i < nr || j < nw; {
		if j < nw && (i >= nr || at(j, writeRate) <= at(i, readRate)) {
			wd := at(j, writeRate)
			o := write(wd)
			o.due = wd
			ops = append(ops, o)
			j++
			continue
		}
		rd := at(i, readRate)
		o := read(rd)
		o.due = rd
		ops = append(ops, o)
		i++
	}
	return ops
}

// closedStream draws n ops with the open loop's read/write mix, the
// writes spread evenly.
func (g *planner) closedStream(n int, readRate, writeRate float64, read, write func() op) []op {
	share := writeRate / (readRate + writeRate)
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		if int(float64(i+1)*share) > int(float64(i)*share) {
			ops = append(ops, write())
		} else {
			ops = append(ops, read())
		}
	}
	return ops
}

// zipfRuns returns a sampler over lives' set-up runs with Zipf(s) skew.
// Ranks map to runs by a fixed scatter (see scatter), so the hot runs
// are spread over workflows and window positions the same way for every
// seed.
func (g *planner) zipfRuns(lives []*live, s float64) func() (*live, string) {
	type ref struct {
		lv  *live
		run string
	}
	var all []ref
	for r := 0; ; r++ {
		added := false
		for _, lv := range lives {
			if r < len(lv.runs) {
				all = append(all, ref{lv, lv.runs[r]})
				added = true
			}
		}
		if !added {
			break
		}
	}
	z := rand.NewZipf(g.rng, s, 1, uint64(len(all)-1))
	return func() (*live, string) {
		r := all[scatter(int(z.Uint64()), len(all))]
		return r.lv, r.run
	}
}

// scatter maps rank k of n to an index by a fixed stride coprime to n,
// so consecutive ranks land far apart and the same ranks land on the
// same items for every seed.
func scatter(k, n int) int {
	stride := n*5/8 | 1
	for gcd(stride, n) != 1 {
		stride += 2
	}
	return k * stride % n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// cycle returns the elements of pattern in turn, forever. The generators
// draw op kinds and targets from cycles rather than at random, so every
// seed gets the same mix in the same proportions.
func cycle(pattern []int) func() int {
	i := -1
	return func() int {
		i++
		return pattern[i%len(pattern)]
	}
}

// spread places window r of runs windows of size evenly over n tasks.
func spread(r, runs, n, size int) int {
	if runs < 2 || n <= size {
		return 0
	}
	return r * (n - size) / (runs - 1)
}

// serveRead: analysts querying provenance. Eight n=1024 workflows with an
// interval and an unsound view, 64 windowed runs plus one full run each;
// the open loop is lineage GETs only.
func (g *planner) serveRead() {
	sp := g.sp
	var lives []*live
	for w := 0; w < sp.Workflows; w++ {
		lv, ops := g.standardLive("sr"+strconv.Itoa(w), sp.Tasks, true)
		for r := 0; r < sp.Runs; r++ {
			run := "w" + strconv.Itoa(r)
			ops = append(ops, ingestOp(lv.id, g.windowRun(lv, run, spread(r, sp.Runs, sp.Tasks, sp.Tasks/4), sp.Tasks/4)))
			lv.runs = append(lv.runs, run)
		}
		ops = append(ops, ingestOp(lv.id, g.fullRun(lv, "full")))
		lv.runs = append(lv.runs, "full")
		lives = append(lives, lv)
		g.p.setup = append(g.p.setup, ops)
	}
	pick := g.zipfRuns(lives, 1.1)
	read := func() op { lv, run := pick(); return g.lineage(lv, run) }
	g.p.open = stream(sp.Open, sp.ReadRate, 0, func(time.Duration) op { return read() }, nil)
	g.p.closed = g.closedStream(sp.ClosedOps, sp.ReadRate, 0, read, nil)
	g.addChecks(lives, 96)
}

// editHeavy: live editing while others read. Two n=4096 workflows with an
// interval and an unsound view and 16 runs each; mutate batches and
// lineage GETs on the same workflows.
func (g *planner) editHeavy() {
	sp := g.sp
	var lives []*live
	for w := 0; w < sp.Workflows; w++ {
		lv, ops := g.standardLive("eh"+strconv.Itoa(w), sp.Tasks, true)
		for r := 0; r < sp.Runs; r++ {
			run := "w" + strconv.Itoa(r)
			ops = append(ops, ingestOp(lv.id, g.windowRun(lv, run, spread(r, sp.Runs, sp.Tasks, sp.Tasks/4), sp.Tasks/4)))
			lv.runs = append(lv.runs, run)
		}
		lives = append(lives, lv)
		g.p.setup = append(g.p.setup, ops)
	}
	pick := g.zipfRuns(lives, 1.1)
	read := func() op { lv, run := pick(); return g.lineage(lv, run) }
	// Per 20 batches: 16 add one edge, 3 add eight, 1 adds two tasks plus
	// four edges; workflows take turns.
	batches := cycle([]int{1, 1, 1, 1, 8, 1, 1, 1, 1, 1, 1, 8, 1, 1, 1, 1, 1, 8, 1, 0})
	target := cycle(seq(len(lives)))
	write := func() op {
		lv := lives[target()]
		if edges := batches(); edges > 0 {
			return lv.ed.batch(lv.id, edges, 0)
		}
		return lv.ed.batch(lv.id, 0, 2)
	}
	g.p.open = stream(sp.Open, sp.ReadRate, sp.WriteRate,
		func(time.Duration) op { return read() }, func(time.Duration) op { return write() })
	g.p.closed = g.closedStream(sp.ClosedOps, sp.ReadRate, sp.WriteRate, read, write)
	g.addChecks(lives, 96)
}

// ingestHeavy: run capture. Four n=1024 workflows with an interval view;
// ingests of n/4-record runs as single documents, NDJSON streams and
// arrays of eight, cycling a pool of run IDs per workflow; lineage GETs on
// runs ingested at least two seconds earlier.
func (g *planner) ingestHeavy() {
	sp := g.sp
	type ingested struct {
		slot int
		due  time.Duration
	}
	var lives []*live
	slotDocs := make([]map[int][]byte, sp.Workflows)
	slotNDJSON := make([]map[int][]byte, sp.Workflows)
	next := make([]int, sp.Workflows)           // next slot each workflow ingests
	history := make([][]ingested, sp.Workflows) // slots in ingest order
	doc := func(w, slot int) []byte {
		if d, ok := slotDocs[w][slot]; ok {
			return d
		}
		d := g.windowRun(lives[w], "s"+strconv.Itoa(slot), spread(slot, sp.RunPool, sp.Tasks, sp.Tasks/4), sp.Tasks/4)
		slotDocs[w][slot] = d
		return d
	}
	for w := 0; w < sp.Workflows; w++ {
		lv, ops := g.standardLive("ih"+strconv.Itoa(w), sp.Tasks, false)
		lives = append(lives, lv)
		slotDocs[w], slotNDJSON[w] = make(map[int][]byte), make(map[int][]byte)
		for s := 0; s < sp.Runs; s++ {
			ops = append(ops, ingestOp(lv.id, doc(w, s)))
			lv.runs = append(lv.runs, "s"+strconv.Itoa(s))
			history[w] = append(history[w], ingested{slot: s, due: -time.Hour})
		}
		next[w] = sp.Runs
		g.p.setup = append(g.p.setup, ops)
	}
	takeSlot := func(w int, due time.Duration) int {
		s := next[w] % sp.RunPool
		next[w]++
		history[w] = append(history[w], ingested{slot: s, due: due})
		return s
	}
	// Per 10 ingests: 7 single JSON documents, 2 NDJSON streams, 1 array
	// of eight; workflows take turns.
	forms := cycle([]int{0, 0, 1, 0, 0, 2, 0, 0, 1, 0})
	writeTarget, readTarget := cycle(seq(len(lives))), cycle(seq(len(lives)))
	write := func(due time.Duration) op {
		w := writeTarget()
		id := lives[w].id
		switch forms() {
		case 0:
			return ingestOp(id, doc(w, takeSlot(w, due)))
		case 1:
			s := takeSlot(w, due)
			d := doc(w, s)
			body, ok := slotNDJSON[w][s]
			if !ok {
				body = ndjson(d)
				slotNDJSON[w][s] = body
			}
			return op{kind: kIngestNDJSON, method: "POST", path: "/v1/workflows/" + id + "/runs",
				body: body, ndjson: true, wf: id, affine: true, doc: [][]byte{d}}
		default:
			docs := make([][]byte, 8)
			for i := range docs {
				docs[i] = doc(w, takeSlot(w, due))
			}
			return op{kind: kIngestArray, method: "POST", path: "/v1/workflows/" + id + "/runs",
				body: append(append([]byte("["), bytes.Join(docs, []byte(","))...), ']'),
				wf:   id, affine: true, doc: docs}
		}
	}
	// A read targets one of the 32 most recent runs ingested at least two
	// seconds before it is due, so a lagging write lane cannot make it ask
	// for a run that does not exist yet.
	read := func(due time.Duration) op {
		w := readTarget()
		h := history[w]
		end := len(h)
		for end > 0 && h[end-1].due > due-2*time.Second {
			end--
		}
		lo := max(0, end-32)
		if end == 0 { // no set-up runs: the earliest ingest is the best guess
			end = 1
		}
		slot := h[lo+g.rng.Intn(end-lo)].slot
		return g.lineage(lives[w], "s"+strconv.Itoa(slot))
	}
	g.p.open = stream(sp.Open, sp.ReadRate, sp.WriteRate, read, write)
	after := sp.Open + time.Hour // every open-loop ingest is done before the closed loop
	g.p.closed = g.closedStream(sp.ClosedOps, sp.ReadRate, sp.WriteRate,
		func() op { return read(after) }, func() op { return write(after) })
	g.addChecks(lives, 96)
}

// onboard: the paper's design loop. A pool of distinct workflows of three
// kinds and four view kinds is validated statelessly; a set of live IDs is
// re-registered, given new views and corrected.
func (g *planner) onboard() {
	sp := g.sp
	pool := make([]*poolEntry, sp.Pool)
	for i := range pool {
		pool[i] = g.poolEntry(i)
	}
	var lives []*live
	for s := 0; s < sp.Workflows; s++ {
		e := pool[s]
		id := "ob" + strconv.Itoa(s)
		views := map[string]*view.View{"v": e.view, "u": e.unsound}
		lv := &live{id: id, wf: e.wf, views: []string{"v", "u"}, ed: newEditor(e.wf, g.rng.Int63())}
		ops := []op{g.register(id, e.wf, views, lv.views)}
		ops = append(ops, g.setupEdits(lv)...)
		if s < sp.Anchors {
			// Anchors keep their registration for the whole run, so their
			// runs are there for the lineage checks.
			ops = append(ops, ingestOp(id, g.fullRun(lv, "full")))
			lv.runs = []string{"full"}
		}
		lives = append(lives, lv)
		g.p.setup = append(g.p.setup, ops)
	}
	// Stateless validate picks pool workflows Zipf(1.2), ranks placed by
	// scatter; 192 distinct workflows overflow the 128-entry oracle cache,
	// so it both hits and misses.
	z := rand.NewZipf(g.rng, 1.2, 1, uint64(len(pool)-1))
	read := func() op {
		e := pool[scatter(int(z.Uint64()), len(pool))]
		return op{kind: kValidate, method: "POST", path: "/v1/validate", body: e.validateBody}
	}
	// Of the workflow-ordered ops: 20/45 re-register one of the second
	// half of the live IDs with a pool workflow, 15/45 replace view "v" of
	// one of the first half (never re-registered, so the view always fits
	// its workflow), 10/45 strongly correct the unsound view "u" of an
	// anchor. Every op is valid in any order, so closed-loop clients may
	// cycle their share.
	stable := sp.Workflows / 2
	viewBodies := map[[2]int][]byte{}
	kinds := cycle([]int{0, 1, 0, 2, 1, 0, 1, 0, 2}) // 4 re-register : 3 view PUT : 2 correct
	reregister := cycle(seq(sp.Workflows - stable))
	viewSlot, anchor := cycle(seq(stable)), cycle(seq(sp.Anchors))
	viewPuts := 0
	// A re-registered ID keeps its class: it cycles through the pool
	// workflows of its original workflow's kind and nominal size, in a
	// seeded order, so the live set weighs about the same on every seed.
	entries := make([]func() int, sp.Workflows)
	class := 3 * len(poolSizes) // see poolEntry: kind by i%3, size by i%5
	for s := stable; s < sp.Workflows; s++ {
		var same []int
		for e := sp.Anchors; e < len(pool); e++ {
			if e%class == s%class {
				same = append(same, e)
			}
		}
		g.rng.Shuffle(len(same), func(i, j int) { same[i], same[j] = same[j], same[i] })
		entries[s] = cycle(same)
	}
	write := func() op {
		switch kinds() {
		case 0:
			s := stable + reregister()
			e := pool[entries[s]()]
			views := map[string]*view.View{"v": e.view, "u": e.unsound}
			return g.register(lives[s].id, e.wf, views, []string{"v", "u"})
		case 1:
			s, kind := viewSlot(), viewPuts/stable%4
			viewPuts++
			body, ok := viewBodies[[2]int{s, kind}]
			if !ok {
				body = mustJSON(g.poolView(pool[s].wf, kind, "v"))
				viewBodies[[2]int{s, kind}] = body
			}
			return op{kind: kPutView, method: "PUT", path: "/v1/workflows/" + lives[s].id + "/views/v",
				body: body, wf: lives[s].id, affine: true, vid: "v"}
		default:
			s := anchor()
			return op{kind: kCorrect, method: "POST", path: "/v1/workflows/" + lives[s].id + "/views/u/correct",
				body: []byte(`{"criterion":"strong"}`), wf: lives[s].id, affine: true, vid: "u"}
		}
	}
	g.p.open = stream(sp.Open, sp.ReadRate, sp.WriteRate,
		func(time.Duration) op { return read() }, func(time.Duration) op { return write() })
	g.p.closed = g.closedStream(sp.ClosedOps, sp.ReadRate, sp.WriteRate, read, write)
	g.addChecks(lives[:sp.Anchors], 96)
}

// poolSizes are the nominal sizes of the onboard pool's non-anchor
// workflows, by index.
var poolSizes = []int{256, 384, 512, 768, 1024}

// poolEntry is one onboard pool workflow with its views.
type poolEntry struct {
	wf           *workflow.Workflow
	view         *view.View // view "v" at registration: kind by index
	unsound      *view.View // view "u": an interval view with injected merges
	validateBody []byte
}

// poolEntry generates pool workflow i. Anchors are n=256 layered
// workflows (cheap to correct strongly); the rest rotate through
// layered, series-parallel and scientific-pipeline workflows of 256 to
// the spec's task count.
func (g *planner) poolEntry(i int) *poolEntry {
	sp := g.sp
	name := "p" + strconv.Itoa(i)
	n := min(256, sp.Tasks)
	if i >= sp.Anchors {
		n = min(poolSizes[i%len(poolSizes)], sp.Tasks)
	}
	var wf *workflow.Workflow
	switch {
	case i < sp.Anchors || i%3 == 0:
		wf = gen.Layered(gen.LayeredConfig{Name: name, Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: g.rng.Int63()})
	case i%3 == 1:
		wf = g.seriesParallel(name, n)
	default:
		branches := 16
		wf = gen.ScientificPipeline(gen.PipelineConfig{Name: name, Branches: branches,
			ChainLen: max(1, (n-4)/branches-1), SideChains: 4, SideChainLen: 4, Seed: g.rng.Int63()})
	}
	e := &poolEntry{wf: wf}
	e.view = g.poolView(wf, i%4, "v")
	e.unsound = g.poolView(wf, 3, "u")
	e.validateBody = mustJSON(server.ValidateRequest{Workflow: mustJSON(wf), View: mustJSON(e.view)})
	return e
}

// seriesParallel draws series-parallel workflows at the depth whose
// sizes centre nearest n, and keeps the first within an eighth of n, or
// else the closest of 16 draws. The recursion makes sizes vary widely,
// and a pool whose sizes moved with the seed would move the per-request
// work and the heap with it.
func (g *planner) seriesParallel(name string, n int) *workflow.Workflow {
	depth := 4
	for _, limit := range []int{128, 320, 640} {
		if n > limit {
			depth++
		}
	}
	off := func(wf *workflow.Workflow) int { return max(wf.N()-n, n-wf.N()) }
	var best *workflow.Workflow
	for try := 0; try < 16 && (best == nil || off(best) > n/8); try++ {
		wf := gen.SeriesParallel(gen.SPConfig{Name: name, Depth: depth, MaxBranch: 4, Seed: g.rng.Int63()})
		if best == nil || off(wf) < off(best) {
			best = wf
		}
	}
	return best
}

// poolView builds one of the four view kinds onboarding sees: interval,
// random, module, or an interval view coarsened by injected merges.
func (g *planner) poolView(wf *workflow.Workflow, kind int, name string) *view.View {
	k := max(2, wf.N()/16)
	switch kind {
	case 0:
		return gen.IntervalView(wf, k, name)
	case 1:
		return gen.RandomView(wf, k, g.rng.Int63(), name)
	case 2:
		return gen.ModuleView(wf, name)
	default:
		return gen.InjectUnsound(gen.IntervalView(wf, k, name), max(1, k/8), g.rng.Int63())
	}
}

// editor draws mutate batches from an acyclic candidate stream: every
// edge goes forward in one fixed topological order of the original
// tasks, and a new task sits at a position of that order with one edge
// in from before it and one edge out to after it. Batches therefore
// commute: applied in any order they never close a cycle, and they only
// name tasks that exist already or that the same batch adds.
type editor struct {
	order []string
	rng   *rand.Rand
	next  int // new-task counter
}

func newEditor(wf *workflow.Workflow, seed int64) *editor {
	return &editor{order: wf.TopoIDs(), rng: rand.New(rand.NewSource(seed))}
}

// batch draws a mutate op adding edges forward edges and newTasks new
// tasks with two edges each. Edges span at most a sixteenth of the order,
// about one layer of a layered workflow.
func (e *editor) batch(wf string, edges, newTasks int) op {
	n := len(e.order)
	span := max(2, n/16)
	var req server.MutateRequest
	for i := 0; i < edges; i++ {
		u := e.rng.Intn(n - 1)
		v := u + 1 + e.rng.Intn(min(span, n-1-u))
		req.Edges = append(req.Edges, [2]string{e.order[u], e.order[v]})
	}
	for i := 0; i < newTasks; i++ {
		id := "x" + strconv.Itoa(e.next)
		e.next++
		p := 1 + e.rng.Intn(n-1)
		req.Tasks = append(req.Tasks, server.MutateTask{ID: id})
		req.Edges = append(req.Edges,
			[2]string{e.order[e.rng.Intn(p)], id},
			[2]string{id, e.order[p+e.rng.Intn(n-p)]})
	}
	return op{kind: kMutate, method: "POST", path: "/v1/workflows/" + wf + "/mutate",
		body: mustJSON(req), wf: wf, affine: true, once: newTasks > 0, mut: req}
}

// Run document wire shapes (see internal/runs).
type runDoc struct {
	Run       string        `json:"run"`
	Artifacts []runArtifact `json:"artifacts"`
	Used      []runUsed     `json:"used,omitempty"`
}

type runArtifact struct {
	ID          string `json:"id"`
	GeneratedBy string `json:"generated_by,omitempty"`
}

type runUsed struct {
	Process  string `json:"process"`
	Artifact string `json:"artifact"`
}

// ndjson re-encodes a run document as an NDJSON stream: the run line,
// then one line per artifact and per used edge.
func ndjson(doc []byte) []byte {
	var d runDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		panic("wolvesbench: generated run document does not decode: " + err.Error())
	}
	var b bytes.Buffer
	b.Write(mustJSON(map[string]string{"run": d.Run}))
	b.WriteByte('\n')
	for i := range d.Artifacts {
		b.Write(mustJSON(map[string]runArtifact{"artifact": d.Artifacts[i]}))
		b.WriteByte('\n')
	}
	for i := range d.Used {
		b.Write(mustJSON(map[string]runUsed{"used": d.Used[i]}))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// mustJSON encodes generated values, which always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("wolvesbench: encoding generated input: " + err.Error())
	}
	return b
}

// seq returns 0, 1, …, n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// hashString places a workflow on a lane or client.
func hashString(s string) int {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int(h.Sum32() & 0x7fffffff)
}
