// Package obs is the zero-dependency observability subsystem: in-process
// trace spans propagated via context (server → engine → runs → storage),
// hand-rolled Prometheus-text-format metrics, and structured key=value
// logging. Nothing outside the Go standard library; every internal
// package may import it without cycles.
//
// Hot-path discipline: counters and histograms are plain atomics with
// labels fixed at registration (no maps, no allocation per event), and
// tracing has a nil-span no-op fast path so the warm lineage serve
// stays at 0 allocs/op when a request is sampled out. Collector-style
// series (cache hit ratios, label-index sizes, run-store totals) read
// their sources only at scrape time via CounterFunc/GaugeFunc.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry, served by wolvesd at
// GET /metrics.
var Default = NewRegistry()

// DefaultTracer is the process-wide tracer, served by wolvesd at
// GET /debug/traces. Sampling starts off (SetSampleN to enable).
var DefaultTracer = NewTracer()

// StartSpan starts a span on the default tracer. See Tracer.StartSpan
// for the sampling contract.
func StartSpan(ctx context.Context, component, name string) (context.Context, *Span) {
	return DefaultTracer.StartSpan(ctx, component, name)
}

// slowQueryNanos is the slow-query threshold; 0 disables the slow log.
var slowQueryNanos atomic.Int64

// SetSlowQueryThreshold sets the duration above which the server logs a
// request to the slow-query log (0 disables).
func SetSlowQueryThreshold(d time.Duration) { slowQueryNanos.Store(int64(d)) }

// SlowQueryThreshold returns the current threshold (0 = disabled).
func SlowQueryThreshold() time.Duration { return time.Duration(slowQueryNanos.Load()) }

// --- canonical instruments -------------------------------------------------
//
// One handle per instrumented seam, resolved once at package init so
// call sites pay a single atomic op. Collector-backed series (oracle
// cache, label index, run-store totals, health state) are bound at
// wire-up time by the components that own them — see
// server.bindCollectors and cmd/wolvesd.

// HTTP serve path.
var (
	// MHTTPLatency observes wall time per served request, all routes.
	MHTTPLatency = Default.Histogram("wolves_http_request_seconds",
		"HTTP request latency in seconds, all routes.", LatencyBuckets)
	// MSlowQueries counts requests over the slow-query threshold.
	MSlowQueries = Default.Counter("wolves_slow_queries_total",
		"Requests slower than the -slow-query threshold.")
)

// Lineage read path (internal/runs).
var (
	// MLineageQueries counts lineage queries by answer level.
	MLineageQueries = Default.CounterVec("wolves_lineage_queries_total",
		"Lineage queries served, by answer level.", "level",
		"exact", "view", "audited")
	// MLineageLatency observes lineage serve latency by answer level.
	MLineageLatency = Default.HistogramVec("wolves_lineage_latency_seconds",
		"Lineage query latency in seconds, by answer level.",
		"level", LatencyBuckets, "exact", "view", "audited")
)

// Ingest write path (internal/runs).
var (
	// MIngestRuns counts runs admitted into the store.
	MIngestRuns = Default.Counter("wolves_ingest_runs_total",
		"Run documents ingested.")
	// MIngestLatency observes per-document ingest latency (decode,
	// validate, intern, insert, journal).
	MIngestLatency = Default.Histogram("wolves_ingest_latency_seconds",
		"Run ingest latency in seconds per document.", LatencyBuckets)
)

// Epoch/label-index seam (internal/engine).
var (
	// MEpochPublishes counts read-epoch publications.
	MEpochPublishes = Default.Counter("wolves_epoch_publishes_total",
		"Read-epoch publications (one per applied mutation batch or view change).")
	// MAuditCacheHits / MAuditCacheMisses track the per-view audit cache.
	MAuditCacheHits = Default.Counter("wolves_audit_cache_hits_total",
		"Audited-lineage delta lookups served from the epoch's cached audit.")
	MAuditCacheMisses = Default.Counter("wolves_audit_cache_misses_total",
		"Audited-lineage delta lookups that found no cached audit and built one from the epoch's labels.")
	// MAuditBuild observes the wall time of each audit build on a cache
	// miss (concurrent first readers may each build one).
	MAuditBuild = Default.Histogram("wolves_audit_build_seconds",
		"Per-view provenance audit build time in seconds, on audit cache misses.", LatencyBuckets)
)

// WAL write path (internal/storage).
var (
	// MWALAppends counts records appended to the WAL.
	MWALAppends = Default.Counter("wolves_wal_appends_total",
		"Records appended to the write-ahead log.")
	// MWALAppendBytes counts bytes appended to the WAL.
	MWALAppendBytes = Default.Counter("wolves_wal_append_bytes_total",
		"Bytes appended to the write-ahead log.")
	// MWALFsyncs counts fsyncs on the active segment.
	MWALFsyncs = Default.Counter("wolves_wal_fsyncs_total",
		"fsync calls on the active WAL segment.")
	// MWALGroupCommit observes records made durable per group-commit
	// fsync (leader batches).
	MWALGroupCommit = Default.Histogram("wolves_wal_group_commit_batch",
		"Records made durable per group-commit fsync.", SizeBuckets)
	// MWALRotations counts segment rotations.
	MWALRotations = Default.Counter("wolves_wal_rotations_total",
		"WAL segment rotations.")
)

// Snapshot/checkpoint path (internal/storage).
var (
	// MSnapshotPublishes counts snapshot documents published.
	MSnapshotPublishes = Default.Counter("wolves_snapshot_publishes_total",
		"Snapshot documents published.")
	// MSnapshotBytes counts snapshot bytes written.
	MSnapshotBytes = Default.Counter("wolves_snapshot_bytes_total",
		"Snapshot bytes written.")
	// MSnapshotRetries counts snapshot write attempts that failed and
	// were retried.
	MSnapshotRetries = Default.Counter("wolves_snapshot_retries_total",
		"Snapshot write attempts retried after a fault.")
)

// Recovery path (internal/storage).
var (
	// MRecoveryRecords counts WAL records replayed at boot.
	MRecoveryRecords = Default.Counter("wolves_recovery_records_replayed_total",
		"WAL records replayed during recovery.")
	// MRecoveryRuns counts run documents restored at boot.
	MRecoveryRuns = Default.Counter("wolves_recovery_runs_total",
		"Run documents restored during recovery.")
	// MRecoverySeconds gauges the wall time of the last recovery.
	MRecoverySeconds = Default.Gauge("wolves_recovery_wall_millis",
		"Wall-clock milliseconds of the last recovery replay.")
)

// Health state machine (internal/engine).
var (
	// MHealthTransitions counts state-machine transitions by target
	// state.
	MHealthTransitions = Default.CounterVec("wolves_health_transitions_total",
		"Health state transitions, by target state.", "state",
		"degraded", "probing", "healthy")
)

func init() {
	DefaultTracer.sampled = Default.Counter("wolves_trace_spans_total",
		"Trace spans recorded (sampled in).")
}
