package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wolves/internal/storage"
)

// result is one run's outcome: the metrics of its mode (end to end, or
// per layer for a traced run), the detail behind them, and the checks.
type result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Metrics   map[string]metric // the BENCHMARK.json metrics of this mode
	Detail    map[string]metric // per-class latencies, counters, harness checks
	Attempted int
	Failed    int
	Failures  []string
}

// runOpts are the run's environment, not its workload.
type runOpts struct {
	workdir   string        // scratch root for data directories
	traceOut  string        // traced run: where trace.json goes
	maxReplay time.Duration // traced run: wall-time cap on the replay
	nproc     int
}

// run generates the workload's inputs and runs it.
func run(ctx context.Context, sp spec, o runOpts) (*result, error) {
	p, err := newPlan(sp)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if sp.Trace {
		return runTraced(ctx, p, dir, o)
	}
	return runTimed(ctx, p, dir, o)
}

// served is a set-up instance with its front end and client.
type served struct {
	in    *instance
	front *httpFront
	cl    *httpClient
}

func (s *served) stop() error {
	s.cl.close()
	return errors.Join(s.front.stop(), s.in.close())
}

// setUp opens a fresh store in dir, starts a server over it and runs the
// set-up ops through nproc clients.
func setUp(ctx context.Context, p *plan, dir string, nproc int) (*served, error) {
	in, _, err := openInstance(dir, nil)
	if err != nil {
		return nil, err
	}
	front, err := startFront(in)
	if err != nil {
		in.close()
		return nil, err
	}
	s := &served{in: in, front: front, cl: newHTTPClient(front.base, nproc)}
	if err := runSetup(ctx, s.cl, p.setup, nproc); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// runTimed is the end-to-end run: set-up (repeated; the last one is
// kept), the open loop, quiesced checks, restarts without checkpoint,
// the checks again (answers must match byte for byte), the closed loop
// and a last round of checks.
func runTimed(ctx context.Context, p *plan, dir string, o runOpts) (*result, error) {
	sp := p.sp
	res := &result{Workload: sp.Workload, Seed: sp.Seed, Detail: map[string]metric{}}
	heapBase := liveHeap()

	var s *served
	var setups []float64
	for i := 0; i < sp.Setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(s.in.dir)
		}
		start := time.Now()
		var err error
		if s, err = setUp(ctx, p, filepath.Join(dir, fmt.Sprintf("setup%d", i)), o.nproc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()

	m0, err := scrape(ctx, s.cl)
	if err != nil {
		return nil, err
	}
	var a0, a1 runtime.MemStats
	runtime.ReadMemStats(&a0)
	samples := openLoop(ctx, s.cl, p.open, lanes(p.open, o.nproc))
	runtime.ReadMemStats(&a1)
	m1, err := scrape(ctx, s.cl)
	if err != nil {
		return nil, err
	}
	heap := int64(liveHeap()) - int64(heapBase)

	before := runChecks(ctx, s.cl, s.in, p)
	// Restart without a checkpoint, as after a crash, sp.Restarts times:
	// every recovery replays the same directory.
	var recovers []float64
	for i := 0; i < sp.Restarts; i++ {
		if err := s.in.close(); err != nil {
			return nil, err
		}
		start := time.Now()
		in, _, err := openInstance(s.in.dir, nil)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, time.Since(start).Seconds())
		s.in = in
	}
	s.front.swap(s.in)
	after := runChecks(ctx, s.cl, s.in, p)
	restart := compareRestart(before, after)

	c0, err := scrape(ctx, s.cl)
	if err != nil {
		return nil, err
	}
	cr := closedLoop(ctx, s.cl, p.closed, o.nproc, sp.Closed)
	c1, err := scrape(ctx, s.cl)
	if err != nil {
		return nil, err
	}
	last := runChecks(ctx, s.cl, s.in, p)
	stopped = true
	if err := s.stop(); err != nil {
		return nil, err
	}

	// Latency from the open loop by class, in the order the requests were
	// due: from the due time, over consecutive chunks of the loop, and from
	// the time the request was sent.
	due, sent := map[string][]float64{}, map[string][]float64{}
	var lags []float64
	failed := 0
	for i := range samples {
		d := float64(samples[i].lat) / float64(time.Millisecond)
		lag := float64(samples[i].lag) / float64(time.Millisecond)
		s := d - lag
		if !samples[i].ok {
			d, s = inf, inf
			failed++
		}
		c := p.open[i].kind.class()
		due[c] = append(due[c], d)
		sent[c] = append(sent[c], s)
		lags = append(lags, lag)
	}
	for _, c := range classOrder {
		if len(due[c]) > 0 {
			latency(res.Detail, c, due[c])
			chunkedLatency(res.Detail, c+"_chunked", due[c])
			latency(res.Detail, c+"_sent", sent[c])
		}
	}
	lagSorted := sortedCopy(lags)
	res.Detail["bench.send_lag_p50_ms"] = metric{Value: quantile(lagSorted, 0.5), Unit: "ms", Samples: len(lags)}
	res.Detail["bench.send_lag_p99_ms"] = metric{Value: quantile(lagSorted, 0.99), Unit: "ms", Samples: len(lags)}
	res.Detail["bench.closed_loop_wrapped"] = metric{Value: b2f(cr.wrapped), Unit: "bool", Samples: 1}
	res.Detail["capacity_ops_s"] = metric{Value: cr.rate, Unit: "ops/s", Samples: cr.done}
	res.Detail["recover_s"] = metric{Value: median(recovers), Unit: "s", Samples: len(recovers)}
	res.Detail["alloc_kb_per_op"] = metric{Value: float64(a1.TotalAlloc-a0.TotalAlloc) / 1024 / float64(len(samples)),
		Unit: "KiB", Samples: len(samples)}
	counterDetail(res.Detail, p, m0, m1, c0, c1)

	for _, k := range []*checks{before, after, last} {
		res.Attempted += k.attempted
		res.Failures = append(res.Failures, k.failures...)
	}
	res.Failures = append(res.Failures, restart...)
	res.Attempted += len(samples) + cr.done
	res.Failed = failed + cr.failed + len(res.Failures)

	res.Metrics = map[string]metric{
		"setup_s":       {Value: median(setups), Unit: "s", Samples: len(setups)},
		"success_rate":  {Value: 1 - float64(res.Failed)/float64(res.Attempted), Unit: "fraction", Samples: res.Attempted},
		"heap_mb":       {Value: float64(heap) / (1 << 20), Unit: "MiB", Samples: 1},
		"allocs_per_op": {Value: float64(a1.Mallocs-a0.Mallocs) / float64(len(samples)), Unit: "count", Samples: len(samples)},
	}
	return res, nil
}

// latency adds the median and the tail (see tailQ) of ms to out as
// <prefix>_p50_ms and <prefix>_<tail>_ms.
func latency(out map[string]metric, prefix string, ms []float64) {
	s := sortedCopy(ms)
	q, name := tailQ(len(s))
	out[prefix+"_p50_ms"] = metric{Value: quantile(s, 0.5), Unit: "ms", Samples: len(s)}
	out[prefix+"_"+name+"_ms"] = metric{Value: quantile(s, q), Unit: "ms", Samples: len(s)}
}

// chunkedLatency is latency read over consecutive chunks of the loop, in
// due order (see chunked).
func chunkedLatency(out map[string]metric, prefix string, ms []float64) {
	q, name := tailQ(len(ms))
	v, k := chunked(ms, 0.5)
	out[prefix+"_p50_ms"] = metric{Value: v, Unit: "ms", Samples: len(ms), At: fmt.Sprintf("over %d chunks", k)}
	v, k = chunked(ms, q)
	out[prefix+"_"+name+"_ms"] = metric{Value: v, Unit: "ms", Samples: len(ms), At: fmt.Sprintf("over %d chunks", k)}
}

// counterDetail derives, from /metrics scrapes around the open loop
// (m0→m1) and the closed loop (c0→c1), the counter ratios that only mean
// something under concurrent load: lineage reads retried or falling back
// while writes publish epochs, and the oracle cache under its real mix.
// The traced run measures the other counter ratios. /metrics is
// process-global, so only deltas mean anything.
func counterDetail(out map[string]metric, p *plan, m0, m1, c0, c1 map[string]float64) {
	mutates := 0
	for i := range p.open {
		if p.open[i].kind == kMutate {
			mutates++
		}
	}
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	sum := func(m map[string]float64, prefix string) float64 {
		s := 0.0
		for k, v := range m {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	ratio := func(name, unit string, num, den float64, n int) {
		if den > 0 {
			out[name] = metric{Value: num / den, Unit: unit, Samples: n}
		}
	}
	queries := sum(m1, "wolves_lineage_queries_total{") - sum(m0, "wolves_lineage_queries_total{")
	ratio("runs.fallback_ratio", "ratio", delta(m0, m1, "wolves_lineage_fallbacks_total"), queries, int(queries))
	ratio("runs.drift_retry_ratio", "ratio", delta(m0, m1, "wolves_lineage_drift_retries_total"), queries, int(queries))
	// The oracle cache is exercised by stateless validates, on both loops.
	oh := delta(m0, m1, "wolves_oracle_cache_hits_total") + delta(c0, c1, "wolves_oracle_cache_hits_total")
	om := delta(m0, m1, "wolves_oracle_cache_misses_total") + delta(c0, c1, "wolves_oracle_cache_misses_total")
	ratio("engine.oracle_cache_hit_ratio", "ratio", oh, oh+om, int(oh+om))
	if mutates > 0 {
		// Summed over resident workflows, so only meaningful when none
		// were replaced during the loop.
		out["engine.label_rebuilds"] = metric{Value: delta(m0, m1, "wolves_label_index_rebuilds_total"), Unit: "count", Samples: mutates}
	}
}

// runTraced is the traced run: the set-up, the open-loop ops due before
// sp.TraceFor and the checks, one request at a time through the handler
// with spans and shadow calls; then the restart, timed.
func runTraced(ctx context.Context, p *plan, dir string, o runOpts) (*result, error) {
	sp := p.sp
	res := &result{Workload: sp.Workload, Seed: sp.Seed, Trace: true, Detail: map[string]metric{}}
	tr := newTracer()
	wrap := func(st *storage.Store) journal { return &tracedJournal{Store: st, tr: tr} }
	in, _, err := openInstance(filepath.Join(dir, "traced"), wrap)
	if err != nil {
		return nil, err
	}
	d := &tracedDoer{tr: tr, in: in, sh: newShadow(tr), roots: map[string][]float64{}}
	defer func() { d.in.close() }()

	if err := runSetup(ctx, d, p.setup, 1); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := range p.open {
		if p.open[i].due >= sp.TraceFor || (o.maxReplay > 0 && time.Since(start) > o.maxReplay) {
			break
		}
		res.Attempted++
		if status, body, err := d.do(ctx, &p.open[i], false); !ok(status, err) {
			res.Failures = append(res.Failures, fmt.Sprintf("%s %s: status %d: %v %s",
				p.open[i].method, p.open[i].path, status, err, trim(body)))
		}
	}
	labelBytes := in.reg.LabelStats().MemoryBytes
	docBytes := in.runs.Stats().DocBytes
	disk, err := dirBytes(in.dir)
	if err != nil {
		return nil, err
	}

	before := runChecks(ctx, d, in, p)
	if err := in.close(); err != nil {
		return nil, err
	}
	rstart := time.Now()
	in, rec, err := openInstance(in.dir, wrap)
	if err != nil {
		return nil, err
	}
	recover := time.Since(rstart)
	d.in = in
	after := runChecks(ctx, d, in, p)

	for _, k := range []*checks{before, after} {
		res.Attempted += k.attempted
		res.Failures = append(res.Failures, k.failures...)
	}
	res.Failures = append(res.Failures, compareRestart(before, after)...)
	res.Failures = append(res.Failures, d.failures...)
	res.Metrics = map[string]metric{}
	listed := map[string]bool{}
	for _, def := range perLayer {
		listed[def.Name] = true
	}
	for name, m := range d.layerMetrics(labelBytes, docBytes, disk, rec, recover) {
		if listed[name] {
			res.Metrics[name] = m
		} else {
			res.Detail[name] = m
		}
	}
	for c, v := range d.roots {
		res.Detail["traced."+c+"_p50_us"] = metric{Value: median(v), Unit: "us", Samples: len(v)}
	}
	for name, v := range tr.samples {
		if !listed[name] {
			res.Detail[name] = metric{Value: median(v), Unit: "us", Samples: len(v)}
		}
	}
	res.Detail["trace.escaped_children"] = metric{Value: float64(tr.escaped), Unit: "count", Samples: len(tr.spans)}
	// server.self_us subtracts a shadow call timed apart from the request,
	// so one request's difference can come out negative and is clamped to
	// 0. A median over mostly clamped requests would be a made-up 0: past
	// maxClampedShare the metric is withheld and the run fails.
	selfs := len(tr.samples["server.self_us"])
	res.Detail["trace.clamped_self"] = metric{Value: float64(tr.clamped), Unit: "count", Samples: selfs}
	if share := float64(tr.clamped) / float64(max(1, selfs)); share > maxClampedShare {
		delete(res.Metrics, "server.self_us")
		res.Failures = append(res.Failures, fmt.Sprintf("server.self_us: %d of %d requests came out negative "+
			"(more than %.0f%%), so it was not measured", tr.clamped, selfs, 100*maxClampedShare))
	}
	res.Failed = len(res.Failures)
	if o.traceOut != "" {
		if err := tr.writeTrace(o.traceOut); err != nil {
			return nil, fmt.Errorf("write %s: %w", o.traceOut, err)
		}
	}
	return res, nil
}

// liveHeap is the bytes of live heap objects. The second collection
// frees what sync.Pool caches kept through the first. HeapAlloc rather
// than HeapInuse: the spans' free space moves by megabytes from run to
// run on the same seed, the live bytes by a fraction of a percent.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
