package main

import (
	"math"
	"sort"
)

// metric is one reported number. Samples is how many measurements it
// summarizes; At says how a chunked latency was read.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	At      string  `json:"at,omitempty"`
}

// metricDef describes one metric. Bound is the share of the parent's
// median by which the metric may get worse before a change counts as a
// regression; Moves (per layer only) names the end-to-end number the
// layer metric should move.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Moves              string
}

// endToEnd are the metrics of BENCHMARK.json that a run with tracing off
// reports, on every workload. They are the ones whose spread over ten
// runs stays within the bound on every workload (README.md, Baseline).
// setup_s is bounded looser than the rest: set-up time guards against
// work moved into set-up, and a busy host moves it most.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "success_rate", Unit: "fraction", Better: "higher", Bound: 0.001},
	{Name: "heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
}

// notMet are end-to-end numbers that were meant to be bounded at 0.10
// but vary more than that from run to run on the reference host. A run
// reports those its workload has, without a bound in BENCHMARK.json;
// -diff still judges them against 0.10, so a change to one reads as
// unresolved unless every run orders one way. The tails are named by the
// percentile tailQ picks at the workload's sample counts.
var notMet = []metricDef{
	{Name: "capacity_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "lineage_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "lineage_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "mutate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "mutate_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "ingest_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "register_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "register_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "validate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "correct_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics the traced run reports, on every workload.
// Times are medians per call over the traced pass (set-up, schedule and
// checks); every workload reaches every layer at least during set-up.
var perLayer = []metricDef{
	{Name: "server.request_us", Unit: "us", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "server.self_us", Unit: "us", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "engine.register_self_us", Unit: "us", Better: "lower", Moves: "register_p50_ms"},
	{Name: "engine.mutate_self_us", Unit: "us", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "engine.mutate_over_rebuild", Unit: "ratio", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "soundness.rebuild_us", Unit: "us", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "soundness.revalidate_us", Unit: "us", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "soundness.validate_us", Unit: "us", Better: "lower", Moves: "register_p50_ms"},
	{Name: "dag.closure_add_us", Unit: "us", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "dag.closure_build_us", Unit: "us", Better: "lower", Moves: "validate_p50_ms"},
	{Name: "dag.labels_build_us", Unit: "us", Better: "lower", Moves: "mutate_p90_ms"},
	{Name: "dag.view_labels_build_us", Unit: "us", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "view.quotient_us", Unit: "us", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "workflow.decode_us", Unit: "us", Better: "lower", Moves: "validate_p50_ms"},
	{Name: "view.decode_us", Unit: "us", Better: "lower", Moves: "register_p50_ms"},
	{Name: "runs.ingest_self_us", Unit: "us", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "runs.lineage_exact_us", Unit: "us", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "runs.lineage_view_us", Unit: "us", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "runs.lineage_audited_us", Unit: "us", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "runs.encode_us", Unit: "us", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "runs.answer_kb", Unit: "KiB", Better: "lower", Moves: "lineage_p50_ms"},
	{Name: "runs.audit_cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "lineage_p50_ms"},
	{Name: "runs.doc_mb", Unit: "MiB", Better: "lower", Moves: "heap_mb"},
	{Name: "storage.registered_us", Unit: "us", Better: "lower", Moves: "register_p50_ms"},
	{Name: "storage.view_attached_us", Unit: "us", Better: "lower", Moves: "register_p90_ms"},
	{Name: "storage.committed_us", Unit: "us", Better: "lower", Moves: "mutate_p90_ms"},
	{Name: "storage.run_ingested_us", Unit: "us", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "storage.fsyncs_per_write", Unit: "ratio", Better: "lower", Moves: "ingest_p99_ms"},
	{Name: "storage.group_commit_mean", Unit: "records", Better: "higher", Moves: "ingest_p99_ms"},
	{Name: "storage.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "recover_s"},
	{Name: "storage.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "recover_s"},
	{Name: "storage.recover_records_s", Unit: "1/s", Better: "higher", Moves: "recover_s"},
	{Name: "engine.epoch_publishes_per_write", Unit: "ratio", Better: "lower", Moves: "lineage_p99_ms"},
	{Name: "engine.label_patches_per_mutate", Unit: "ratio", Better: "lower", Moves: "mutate_p50_ms"},
	{Name: "engine.label_index_mb", Unit: "MiB", Better: "lower", Moves: "heap_mb"},
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQ picks the highest of p99 and p90 that leaves at least ten of n
// samples beyond it, falling back to p50.
func tailQ(n int) (float64, string) {
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}} {
		if n-int(math.Ceil(p.q*float64(n))) >= 10 {
			return p.q, p.name
		}
	}
	return 0.5, "p50"
}

// maxChunks caps how many consecutive chunks chunked splits a phase into.
const maxChunks = 15

// chunked reads values (in the order they were due) at quantile q in
// each of up to maxChunks consecutive chunks, and returns the median
// over the chunks for the median, or their lower quartile for a tail. A
// chunk holds at least 100 samples for the median, or enough to leave 20
// beyond a tail quantile; smaller classes are read whole, since a
// chunk's quantile over a few dozen samples is noisier than what the
// chunks remove. On a shared host, bursts of interference slow
// everything for a second or two, and a quantile over the whole phase
// depends on how many bursts hit it; over chunks it does not, as long as
// fewer than half (for a tail, three quarters) of the chunks are hit. By
// the same token a stall of the program's own that hits fewer chunks
// does not move it either, so it is a detail number beside the
// whole-loop quantiles, not a replacement for them.
func chunked(values []float64, q float64) (float64, int) {
	per := 100
	if q > 0.5 {
		per = int(math.Ceil(20/(1-q) - 1e-9)) // 1-0.9 is a hair under 0.1
	}
	k := max(1, min(maxChunks, len(values)/per))
	var stats []float64
	for c := 0; c < k; c++ {
		chunk := sortedCopy(values[c*len(values)/k : (c+1)*len(values)/k])
		stats = append(stats, quantile(chunk, q))
	}
	if q > 0.5 && k >= 4 {
		q1, _ := quartiles(stats)
		return q1, k
	}
	return median(stats), k
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := max(1, min(i*(m+1)/4, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
