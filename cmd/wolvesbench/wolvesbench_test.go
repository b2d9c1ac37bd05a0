package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySpec is a workload at a scale that runs in a second: the same
// builders, phases and checks as the measured runs.
func tinySpec(workload string, seed int64, trace bool) spec {
	sp := spec{
		Workload: workload, Seed: seed,
		Open: 500 * time.Millisecond, Closed: 300 * time.Millisecond,
		Setups: 2, Restarts: 2, Trace: trace, TraceFor: 500 * time.Millisecond, Edits: 4,
		Workflows: 2, Tasks: 64, Runs: 3, RunPool: 8,
		ReadRate: 200, WriteRate: 20, ClosedOps: 300,
	}
	if workload == "onboard" {
		sp.Workflows, sp.Pool, sp.Anchors = 4, 6, 1
	}
	return sp
}

func runTiny(t *testing.T, sp spec) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := run(context.Background(), sp, runOpts{workdir: dir, traceOut: filepath.Join(dir, "trace.json"),
		nproc: 2, maxReplay: 10 * time.Second})
	if err != nil {
		t.Fatalf("%s: %v", sp.Workload, err)
	}
	if len(res.Failures) > 0 || res.Failed > 0 {
		t.Fatalf("%s: %d failed: %s", sp.Workload, res.Failed, strings.Join(res.Failures, "\n"))
	}
	return res
}

// Every workload runs end to end and traced at a tiny scale with every
// request succeeding, every check passing and every metric measured.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := runTiny(t, tinySpec(w, 7, false))
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				// A tiny server's heap growth is within GC noise of zero.
				positive := m.Value > 0 || d.Name == "heap_mb"
				if !ok || !positive || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
					t.Errorf("end to end %s = %+v, want a positive finite value", d.Name, m)
				}
			}
			if res.Metrics["success_rate"].Value != 1 {
				t.Errorf("success_rate = %v, want 1", res.Metrics["success_rate"].Value)
			}

			tr := runTiny(t, tinySpec(w, 7, true))
			for _, d := range perLayer {
				m, ok := tr.Metrics[d.Name]
				if !ok || m.Value < 0 || math.IsNaN(m.Value) {
					t.Errorf("per layer %s = %+v, want a measured non-negative value", d.Name, m)
				}
			}
			if n := tr.Detail["trace.escaped_children"].Value; n != 0 {
				t.Errorf("%v child spans ended outside their request's root span", n)
			}
			if c := tr.Detail["trace.clamped_self"]; c.Samples == 0 || c.Value > maxClampedShare*float64(c.Samples) {
				t.Errorf("server.self_us clamped to 0 on %v of %d requests, want at most %.0f%%",
					c.Value, c.Samples, 100*maxClampedShare)
			}
		})
	}
}

// The trace file is valid JSON with the requests' roots and their shadow
// calls.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if _, err := run(context.Background(), tinySpec("edit-heavy", 3, true),
		runOpts{workdir: dir, traceOut: path, nproc: 2, maxReplay: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	names := map[string]bool{}
	for _, e := range tf.TraceEvents {
		names[e.Name] = true
		if e.Dur < 0 {
			t.Errorf("span %s has negative duration", e.Name)
		}
	}
	for _, want := range []string{"POST mutate", "storage.committed_us", "engine.mutate_self_us", "dag.closure_add_us"} {
		if !names[want] {
			t.Errorf("trace.json has no %q span", want)
		}
	}
}

// planHash digests everything the server will be sent.
func planHash(p *plan) string {
	h := sha256.New()
	write := func(ops []op) {
		for i := range ops {
			o := &ops[i]
			fmt.Fprintf(h, "%s %s %d %s %v %d\n", o.method, o.path, o.due, o.wf, o.affine, len(o.body))
			h.Write(o.body)
		}
	}
	for _, g := range p.setup {
		write(g)
	}
	write(p.open)
	write(p.closed)
	for _, c := range p.checks {
		fmt.Fprintf(h, "%s %+v\n", c.wf, c.q)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The same seed produces a byte-identical schedule; another seed does
// not.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) string {
			p, err := newPlan(tinySpec(w, seed, false))
			if err != nil {
				t.Fatal(err)
			}
			return planHash(p)
		}
		if a, b := gen(11), gen(11); a != b {
			t.Errorf("%s: seed 11 gave two different schedules", w)
		}
		if a, b := gen(11), gen(12); a == b {
			t.Errorf("%s: seeds 11 and 12 gave the same schedule", w)
		}
	}
}

// corrupter drops the last task from every lineage answer.
type corrupter struct{ doer }

func (c corrupter) do(ctx context.Context, o *op, keep bool) (int, []byte, error) {
	status, body, err := c.doer.do(ctx, o, keep)
	if o.kind != kLineage || err != nil {
		return status, body, err
	}
	var ans map[string]any
	if json.Unmarshal(body, &ans) == nil {
		if tasks, _ := ans["tasks"].([]any); len(tasks) > 0 {
			ans["tasks"] = tasks[:len(tasks)-1]
			body = mustJSON(ans)
		}
	}
	return status, body, err
}

// A corrupted lineage answer fails the checks; the honest one passes.
func TestChecksCatchCorruptAnswer(t *testing.T) {
	ctx := context.Background()
	p, err := newPlan(tinySpec("serve-read", 5, false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := setUp(ctx, p, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if k := runChecks(ctx, s.cl, s.in, p); len(k.failures) > 0 {
		t.Fatalf("honest answers failed the checks: %v", k.failures)
	}
	k := runChecks(ctx, corrupter{s.cl}, s.in, p)
	if len(k.failures) == 0 {
		t.Fatal("corrupted answers passed the checks")
	}
	for _, f := range k.failures {
		if !strings.Contains(f, "lineage") {
			t.Errorf("unexpected failure: %s", f)
		}
	}
}

// stallDoer takes stall on the first request and nothing afterwards.
type stallDoer struct {
	stall time.Duration
	calls int
}

func (d *stallDoer) do(context.Context, *op, bool) (int, []byte, error) {
	if d.calls++; d.calls == 1 {
		time.Sleep(d.stall)
	}
	return 200, nil, nil
}

// A stalled lane charges its backlog to the requests behind it, counted
// from when they were due.
func TestDueTimeLatency(t *testing.T) {
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}, {due: 200 * time.Millisecond}}
	samples := openLoop(context.Background(), &stallDoer{stall: 60 * time.Millisecond}, ops, [][]int{{0, 1, 2, 3}})
	if got := samples[1].lat; got < 50*time.Millisecond {
		t.Errorf("request due at 10ms behind a 60ms stall: latency %v, want ≥ 50ms", got)
	}
	if got := samples[2].lat; got < 40*time.Millisecond {
		t.Errorf("request due at 20ms behind a 60ms stall: latency %v, want ≥ 40ms", got)
	}
	if got := samples[2].lag; got < 40*time.Millisecond {
		t.Errorf("send lag %v, want ≥ 40ms", got)
	}
	if got := samples[3].lat; got > 20*time.Millisecond {
		t.Errorf("request on an idle lane: latency %v, want only its own service time", got)
	}
}

// Tails are read at the highest percentile with at least ten samples
// beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{1000, "p99"}, {999, "p90"}, {100, "p90"}, {99, "p50"}, {22500, "p99"}} {
		if _, got := tailQ(c.n); got != c.want {
			t.Errorf("tailQ(%d) = %s, want %s", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	// Bursts in fewer than a quarter of the chunks leave the chunked tail
	// alone.
	vals := make([]float64, 30000)
	for i := range vals {
		vals[i] = 1
		if i/2000 == 3 || i/2000 == 9 { // two of fifteen chunks slowed
			vals[i] = 50
		}
	}
	if got, k := chunked(vals, 0.99); got != 1 || k != 15 {
		t.Errorf("chunked p99 = %v over %d chunks, want 1 over 15", got, k)
	}
}

// quartiles agrees with Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name string
		new  []float64
		want string
	}{
		{"same", []float64{10, 10.1, 9.95, 10, 10}, "ok"},
		{"slower", []float64{12, 12.1, 11.9, 12, 12}, "regressed"},
		{"faster", []float64{8, 8.1, 7.9, 8, 8}, "improved"},
		{"noisy", []float64{6, 14, 9, 11, 10}, "unresolved"},
	} {
		change := (median(c.new) - median(steady)) / median(steady)
		if got := judge(steady, c.new, 1, change, 0.1); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// -diff judges the end-to-end numbers BENCHMARK.json leaves without a
// bound against 0.10, from the runs' detail.
func TestDiffJudgesUnbounded(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, v, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	results := func(name string, lineage ...float64) string {
		var f resultsFile
		for _, v := range lineage {
			f.Runs = append(f.Runs, runRecord{Workload: "serve-read",
				Metrics: map[string]metric{"heap_mb": {Value: 40}},
				Detail:  map[string]metric{"lineage_p50_ms": {Value: v}, "lineage_sent_p50_ms": {Value: v}}})
		}
		return write(name, mustJSON(f))
	}
	bench := write("BENCHMARK.json", []byte(`{"end_to_end":[{"name":"heap_mb","better":"lower","bound":0.1}]}`))
	old := results("old.json", 0.20, 0.21, 0.20, 0.19, 0.20)
	slow := results("new.json", 0.30, 0.31, 0.30, 0.29, 0.30)
	var out bytes.Buffer
	if err := diffResults(&out, bench, old, slow); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) > 1 {
			lines[f[1]] = l
		}
	}
	if !strings.HasSuffix(lines["lineage_p50_ms"], "regressed") {
		t.Errorf("lineage_p50_ms 50%% slower: %q, want regressed", lines["lineage_p50_ms"])
	}
	if !strings.HasSuffix(lines["heap_mb"], "ok") {
		t.Errorf("heap_mb unchanged: %q, want ok", lines["heap_mb"])
	}
	if l, ok := lines["lineage_sent_p50_ms"]; ok {
		t.Errorf("detail variant judged: %q", l)
	}
}

// BENCHMARK.json describes exactly the metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	compare := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd)
	compare("per_layer", f.PerLayer, perLayer)
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}
