// Command wolvesbench is the end-to-end and per-layer benchmark of
// wolvesd. It starts an in-process server over a durable store on a
// loopback listener, drives one seeded workload against it over HTTP and
// checks the server's answers against from-scratch references.
//
// Usage:
//
//	wolvesbench --workload serve-read --seed 1 --seconds 30 --trace 0 [-out results.json]
//	wolvesbench -diff old.json new.json
//
// With --trace 0 a run sets up (three times; setup_s is the median),
// drives an open loop at fixed rates for three quarters of --seconds,
// checks the quiesced server, restarts it from its data directory without
// a checkpoint, checks again, and drives a closed loop with one client
// per CPU for the last quarter. README.md describes the workloads and
// metrics. With --trace 1 it replays the set-up and the first seconds of
// the same schedule one request at a time through the server's handler,
// timing each layer (see trace.go), and writes the spans to trace.json.
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1) of BENCHMARK.json. The lines before it are a readable table
// with sample counts, the numbers left without a bound, and the detail
// behind them. The exit code is 1 when a check failed or the run could
// not complete.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var inf = math.Inf(1)

func main() {
	code, err := mainErr(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolvesbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func mainErr(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("wolvesbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the measured phases in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	workdir := fs.String("workdir", ".bench_build", "directory for the server's data directories")
	traceOut := fs.String("trace-out", "", "traced run: trace file (default <workdir>/trace.json)")
	out := fs.String("out", "", "append this run, with its environment, to a results file")
	diff := fs.Bool("diff", false, "compare two results files: wolvesbench -diff old.json new.json")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "diff: the benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *diff {
		if fs.NArg() != 2 {
			return 0, errors.New("-diff takes two results files")
		}
		return 0, diffResults(stdout, *benchmark, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return 0, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return 0, fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	sp, err := defaultSpec(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return 0, err
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(*workdir, "trace.json")
	}
	res, err := run(context.Background(), sp, runOpts{
		workdir: *workdir, traceOut: *traceOut, nproc: runtime.NumCPU(),
		maxReplay: time.Duration(*seconds) * time.Second,
	})
	if err != nil {
		return 0, err
	}
	defs := endToEnd
	if sp.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Failures = append(res.Failures, "metric "+d.Name+" was not measured")
			res.Failed++
		}
	}
	printTable(stdout, res, defs)
	if *out != "" {
		if err := appendResult(*out, res, *seconds); err != nil {
			return 0, err
		}
	}
	if err := printSummary(stdout, res, defs); err != nil {
		return 0, err
	}
	if len(res.Failures) > 0 {
		return 1, nil
	}
	return 0, nil
}

// printTable writes the readable report: every metric with its unit and
// sample count, then the detail, then any failed check.
func printTable(w io.Writer, res *result, defs []metricDef) {
	mode := "end to end"
	if res.Trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "wolvesbench %s seed=%d (%s) nproc=%d GOMAXPROCS=%d %s\n",
		res.Workload, res.Seed, mode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	row := func(name string, m metric, note string) {
		if m.At != "" {
			note = " (" + m.At + ")" + note
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d%s\n", name, m.Value, m.Unit, m.Samples, note)
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			note := ""
			if d.Moves != "" {
				note = "  (moves " + d.Moves + ")"
			}
			row(d.Name, m, note)
		}
	}
	shown := map[string]bool{}
	if !res.Trace {
		fmt.Fprintln(w, " not bounded (run-to-run spread above 0.10):")
		for _, d := range notMet {
			if m, ok := res.Detail[d.Name]; ok {
				row(d.Name, m, "")
				shown[d.Name] = true
			}
		}
	}
	fmt.Fprintln(w, " detail:")
	for _, name := range sortedKeys(res.Detail) {
		if !shown[name] {
			row(name, res.Detail[name], "")
		}
	}
	fmt.Fprintf(w, " requests attempted=%d failed=%d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, " FAILED:", f)
	}
}

// printSummary writes the one-line JSON result that tools read from the
// last line of standard output.
func printSummary(w io.Writer, res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.Failures) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok && !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value) {
			out.Metrics[d.Name] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
