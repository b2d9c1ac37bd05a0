package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// resultsFile is the trajectory -out appends to: one record per run.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// runRecord is one run with the environment it ran in.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    int               `json:"seconds"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	CPU        string            `json:"cpu"`
	Time       string            `json:"time"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]metric `json:"detail,omitempty"`
}

// appendResult adds res to the results file at path, creating it.
func appendResult(path string, res *result, seconds int) error {
	var f resultsFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, runRecord{
		Workload: res.Workload, Seed: res.Seed, Trace: res.Trace, Seconds: seconds,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: cpuModel(), Time: time.Now().UTC().Format(time.RFC3339),
		Correct: len(res.Failures) == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: finite(res.Metrics), Detail: finite(res.Detail),
	})
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// finite drops values JSON cannot carry (a tail read from failed
// requests is infinite).
func finite(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		if !math.IsInf(v.Value, 0) && !math.IsNaN(v.Value) {
			out[k] = v
		}
	}
	return out
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// benchmarkFile is the part of BENCHMARK.json the diff needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// diffResults prints, per workload and metric, the medians of the two
// files' runs, the relative change (positive is worse) and a verdict
// against the metric's bound: regressed when the change is worse than
// the bound, unresolved when either side's quartile spread is wider than
// the bound and the runs do not all order one way. The bounds are those
// of BENCHMARK.json, and 0.10 for the numbers in notMet; the per-layer
// metrics get the change only.
func diffResults(w io.Writer, benchPath, oldPath, newPath string) error {
	var bench benchmarkFile
	if err := readJSON(benchPath, &bench); err != nil {
		return err
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range notMet {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range bench.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range bench.PerLayer {
		better[m.Name] = m.Better
	}
	var oldF, newF resultsFile
	if err := readJSON(oldPath, &oldF); err != nil {
		return err
	}
	if err := readJSON(newPath, &newF); err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	collect := func(f resultsFile) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range f.Runs {
			for name, m := range r.Metrics {
				k := key{r.Workload, r.Trace, name}
				out[k] = append(out[k], m.Value)
			}
			for _, d := range notMet {
				if m, ok := r.Detail[d.Name]; ok && !r.Trace {
					k := key{r.Workload, r.Trace, d.Name}
					out[k] = append(out[k], m.Value)
				}
			}
		}
		return out
	}
	olds, news := collect(oldF), collect(newF)
	var keys []key
	for k := range olds {
		if _, ok := news[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	regressed := 0
	for _, k := range keys {
		o, n := olds[k], news[k]
		om, nm := median(o), median(n)
		sign := 1.0
		if better[k.metric] == "higher" {
			sign = -1
		}
		change := 0.0
		if om != 0 {
			change = sign * (nm - om) / math.Abs(om)
		}
		bound, hasBound := bounds[k.metric]
		verdict := ""
		if hasBound {
			verdict = judge(o, n, sign, change, bound)
			if verdict == "regressed" {
				regressed++
			}
		}
		b := ""
		if hasBound {
			b = fmt.Sprintf("%.3f", bound)
		}
		fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %+8.1f%% %7s  %s\n",
			k.workload, k.metric, om, nm, 100*change, b, verdict)
	}
	fmt.Fprintf(w, "%d metric(s) regressed\n", regressed)
	return nil
}

// judge gives the verdict for one bounded metric; sign is +1 when lower
// is better.
func judge(old, new []float64, sign, change, bound float64) string {
	spread := func(v []float64) float64 {
		q1, q3 := quartiles(v)
		m := median(v)
		if m == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(m)
	}
	worseAll, betterAll := true, true
	for _, a := range old {
		for _, b := range new {
			d := sign * (b - a)
			worseAll = worseAll && d > 0
			betterAll = betterAll && d < 0
		}
	}
	switch {
	case len(old) > 1 && len(new) > 1 && (spread(old) > bound || spread(new) > bound):
		if worseAll {
			return "regressed"
		}
		if betterAll {
			return "improved"
		}
		return "unresolved"
	case change > bound:
		return "regressed"
	case change < -bound:
		return "improved"
	}
	return "ok"
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
