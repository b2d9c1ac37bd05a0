package server

// This file is the server's observability seam: the per-route
// middleware (trace root span, latency histogram, request counters by
// route × status class, slow-query log), the /metrics and /debug/traces
// endpoints, and the scrape-time collectors that read live subsystem
// stats (oracle cache, label index, run store, registry health) without
// those subsystems ever pushing.
//
// The middleware is allocation-conscious: with tracing sampled out a
// request pays two clock reads, a pooled status recorder and a handful
// of atomic bumps — nothing on the heap.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"wolves/internal/obs"
)

// serverLog narrates cold-path server events (slow queries); the
// request hot path never logs.
var serverLog = obs.NewLogger("server")

// classNames are the status classes of wolves_http_requests_total.
var classNames = [4]string{"2xx", "3xx", "4xx", "5xx"}

// codeClass buckets an HTTP status into classNames.
func codeClass(status int) int {
	switch {
	case status < 300:
		return 0
	case status < 400:
		return 1
	case status < 500:
		return 2
	default:
		return 3
	}
}

// routeMetrics holds one route's pre-resolved counters. Series are
// minted once per process at mux construction; the hot path indexes a
// fixed array, it never renders or looks up a label.
type routeMetrics struct {
	classes [4]*obs.Counter
}

var (
	routeMu  sync.Mutex
	routeTab = map[string]*routeMetrics{}
)

// metricsForRoute mints (once per process) the route's counters. Two
// servers in one process share them — metrics are process-global.
func metricsForRoute(route string) *routeMetrics {
	routeMu.Lock()
	defer routeMu.Unlock()
	rm := routeTab[route]
	if rm == nil {
		rm = &routeMetrics{}
		for i, class := range classNames {
			rm.classes[i] = obs.Default.Counter("wolves_http_requests_total",
				"HTTP requests served, by route and status class.",
				obs.Label{Name: "route", Value: route},
				obs.Label{Name: "code", Value: class})
		}
		routeTab[route] = rm
	}
	return rm
}

// statusRecorder captures the response status for the route counters.
// Pooled: the wrapper must not cost the warm serve path an allocation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes so wrapping never disables them.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// instrument wraps one route's handler with the observability
// middleware: a root trace span when sampled, the request latency
// histogram, the per-route×class counter, and the slow-query log over
// the obs.SlowQueryThreshold. The duration is measured here — not on
// the span — so slow requests are caught whether or not they were
// sampled.
func instrument(route string, h http.Handler) http.Handler {
	rm := metricsForRoute(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, span := obs.StartSpan(r.Context(), "http", route)
		if span != nil {
			r = r.WithContext(ctx)
		}
		sr := recorderPool.Get().(*statusRecorder) //lint:allow poolret Put follows below; handlers never retain the wrapper
		sr.ResponseWriter, sr.status = w, http.StatusOK
		h.ServeHTTP(sr, r)
		status := sr.status
		sr.ResponseWriter = nil
		recorderPool.Put(sr)

		dur := time.Since(start)
		class := codeClass(status)
		span.SetAttr("class", classNames[class])
		span.End()
		rm.classes[class].Inc()
		obs.MHTTPLatency.Observe(dur.Seconds())
		if th := obs.SlowQueryThreshold(); th > 0 && dur >= th {
			obs.MSlowQueries.Inc()
			serverLog.Warn("slow request",
				"route", route, "status", status, "millis", dur.Milliseconds())
		}
	})
}

// buildInfo resolves the binary's version and VCS commit from the
// embedded build info; "unknown" when built without module or VCS
// stamps (go test binaries, bare go build in a dirty tree).
func buildInfo() (version, commit string) {
	version, commit = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			commit = kv.Value
		}
	}
	return
}

// bindCollectors registers the scrape-time series that read live
// subsystem stats. Collector rebinding replaces the previous function
// for the same series, so every Server constructed in a process (tests
// build many) re-points the series to itself — the one actually
// serving /metrics answers with its own state.
func (s *Server) bindCollectors() {
	d := obs.Default
	d.GaugeFunc("wolves_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	d.GaugeFunc("wolves_goroutines", "Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	version, commit := buildInfo()
	d.GaugeFunc("wolves_build_info", "Build metadata carried in labels; the value is always 1.",
		func() float64 { return 1 },
		obs.Label{Name: "version", Value: version},
		obs.Label{Name: "commit", Value: commit},
		obs.Label{Name: "goversion", Value: runtime.Version()})

	// Oracle / audit cache: the engine keeps the counters, /metrics reads
	// them at scrape time.
	d.CounterFunc("wolves_oracle_cache_hits_total", "Oracle cache hits.",
		func() uint64 { return uint64(s.eng.CacheStats().Hits) })
	d.CounterFunc("wolves_oracle_cache_misses_total", "Oracle cache misses.",
		func() uint64 { return uint64(s.eng.CacheStats().Misses) })
	d.CounterFunc("wolves_oracle_cache_builds_total", "Oracle builds (cache fills).",
		func() uint64 { return uint64(s.eng.CacheStats().Builds) })
	d.CounterFunc("wolves_oracle_cache_evictions_total", "Oracle cache evictions.",
		func() uint64 { return uint64(s.eng.CacheStats().Evictions) })
	d.GaugeFunc("wolves_oracle_cache_entries", "Resident oracle cache entries.",
		func() float64 { return float64(s.eng.CacheStats().Size) })

	// Reachability label index, summed over resident workflows.
	d.CounterFunc("wolves_label_index_builds_total", "Task-level label index pair builds: registration, rollback and size-rule rebuilds.",
		func() uint64 { return uint64(s.reg.LabelStats().Builds) })
	d.CounterFunc("wolves_label_index_rebuilds_total", "Task-level label index rebuilds forced once patching doubled its size.",
		func() uint64 { return uint64(s.reg.LabelStats().Rebuilds) })
	d.CounterFunc("wolves_label_index_patches_total", "Incremental label edge patches.",
		func() uint64 { return uint64(s.reg.LabelStats().Patches) })
	d.CounterFunc("wolves_label_index_view_builds_total", "View-level (quotient) label builds.",
		func() uint64 { return uint64(s.reg.LabelStats().ViewBuilds) })
	d.GaugeFunc("wolves_label_index_memory_bytes", "Resident label index footprint, task and view level.",
		func() float64 { return float64(s.reg.LabelStats().MemoryBytes) })

	// Registry population and degraded-mode health.
	d.GaugeFunc("wolves_live_workflows", "Workflows resident in the live registry.",
		func() float64 { return float64(s.reg.Len()) })
	d.GaugeFunc("wolves_degraded", "1 while the registry is in degraded read-only mode.",
		func() float64 {
			if s.reg.Degraded() {
				return 1
			}
			return 0
		})
	d.GaugeFunc("wolves_degraded_seconds", "Seconds the current degradation has lasted; 0 when healthy.",
		func() float64 { return s.reg.Health().DegradedSeconds })

	// Run store residency (lifetime ingest counters live in obs.MIngest*).
	d.GaugeFunc("wolves_runs_resident", "Run documents resident across all workflows.",
		func() float64 { return float64(s.runs.Stats().Runs) })
	d.GaugeFunc("wolves_run_doc_bytes", "Canonical run document bytes resident.",
		func() float64 { return float64(s.runs.Stats().DocBytes) })
	d.GaugeFunc("wolves_run_memory_bytes", "Heap bytes resident runs hold: index slab, ID string, document, bitset and a fixed part per run.",
		func() float64 { return float64(s.runs.Stats().MemoryBytes) })
}
