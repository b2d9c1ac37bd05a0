// Command wolvesd serves the WOLVES pipeline over HTTP: the production
// face of the system. One long-lived Engine owns a fingerprint-keyed
// LRU of soundness oracles, so the reachability closure of a workflow is
// built once and shared by every request — exactly the shape needed to
// serve heavy validate/correct traffic over a repository of workflows.
// A live workflow registry sits beside it: clients register a workflow
// once, then stream cheap mutation batches; the daemon maintains every
// attached view's soundness report incrementally (dirty-set
// revalidation over an incrementally updated closure) instead of
// re-deriving the world per request.
//
// With -data-dir the registry is durable: every committed registry
// transition is journaled to a checksummed write-ahead log with periodic
// per-workflow snapshots, the registry is recovered from it at boot, and
// a final checkpoint is written on graceful shutdown — a restarted
// daemon serves the same workflows, versions and reports it held before.
// Without -data-dir the registry is in-memory, exactly as before.
//
// If the disk misbehaves at runtime the daemon degrades instead of
// lying: reads keep serving the in-memory state, mutations and ingests
// are shed with 503 + Retry-After, /readyz reports degraded, and a
// background probe rotates the journal onto a fresh segment and resyncs
// before flipping ready again. A failed final checkpoint is logged and
// the daemon exits non-zero — the WAL already holds every acknowledged
// transition, so the next boot replays it.
//
// Usage:
//
//	wolvesd [-addr :8342] [-workers N] [-cache N] [-live-workflows N]
//	        [-optimal-timeout 2s] [-read-timeout 30s] [-request-timeout 30s]
//	        [-ingest-concurrency N] [-data-dir DIR] [-fsync none|batch|always]
//	        [-snapshot-bytes N] [-snapshot-every N] [-probe-backoff 250ms]
//	        [-pprof-addr 127.0.0.1:6060] [-trace-sample N] [-slow-query 250ms]
//	        [-log-level info]
//
// -pprof-addr serves net/http/pprof on a separate private listener,
// never on the service address; keep it bound to loopback (a
// non-loopback bind works but is logged loudly, since profiles expose
// process internals).
//
// Observability: GET /metrics serves Prometheus text-format counters,
// gauges and histograms for the full serve/write/recovery path; it is
// the daemon's one stats surface.
// -trace-sample N records one in N requests as an in-process trace,
// tailed at GET /debug/traces (0, the default, disables tracing and
// keeps the warm serve path allocation-free). -slow-query D logs any
// request slower than D and counts it in wolves_slow_queries_total.
// All daemon logs are structured key=value lines; -log-level sets the
// minimum severity (debug, info, warn, error).
//
// Stateless endpoints:
//
//	POST /v1/validate  {"workflow": …, "view": …}
//	POST /v1/correct   {"workflow": …, "view": …, "criterion": "strong"}
//	POST /v1/batch     {"jobs": [{"op": "validate", …}, …]}
//	GET  /healthz      liveness: {"status":"ok"} while the process serves
//	GET  /readyz       readiness and health: 503 while degraded or draining
//
// Live workflow resources:
//
//	PUT    /v1/workflows/{id}                      register workflow + views
//	GET    /v1/workflows/{id}                      metadata + document
//	DELETE /v1/workflows/{id}
//	POST   /v1/workflows/{id}/mutate               apply a task/edge batch
//	PUT    /v1/workflows/{id}/views/{vid}          attach/replace a view
//	DELETE /v1/workflows/{id}/views/{vid}
//	POST   /v1/workflows/{id}/views/{vid}/validate maintained report (lookup)
//	POST   /v1/workflows/{id}/views/{vid}/correct  propose a sound split
//	POST   /v1/workflows/{id}/views/{vid}/lineage  view vs exact provenance
//	GET    /v1/workflows                           enumerate registered workflows
//
// Provenance runs (the run store: real execution traces + lineage):
//
//	POST /v1/workflows/{id}/runs                   ingest a trace (JSON or NDJSON)
//	GET  /v1/workflows/{id}/runs                   list ingested runs
//	GET  /v1/workflows/{id}/runs/{rid}             run metadata
//	GET  /v1/workflows/{id}/runs/{rid}/lineage     ?artifact=…&level=exact|view|audited
//	POST /v1/workflows/{id}/runs/query             batch lineage queries
//
// Runs are journaled and snapshot-covered with the registry, so a
// restarted daemon serves the same runs and lineage answers.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to 10 seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wolves/internal/engine"
	"wolves/internal/obs"
	"wolves/internal/runs"
	"wolves/internal/server"
	"wolves/internal/storage"
)

// mainLog narrates daemon lifecycle: boot, recovery, shutdown. Request
// traffic never goes through it.
var mainLog = obs.NewLogger("wolvesd")

// openStore is swapped by tests to wrap the store's filesystem with
// fault injection.
var openStore = storage.Open

// startPprof serves net/http/pprof on its own private listener, kept
// off the public mux so profiling is never reachable through the
// service address. The flag is opt-in; a non-loopback bind is allowed
// (containers, lab networks) but loudly logged, since the profile
// endpoints expose heap contents and symbol tables.
func startPprof(addr string) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if host, _, herr := net.SplitHostPort(addr); herr == nil {
		if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
			mainLog.Warn("pprof listener is not loopback; profiling endpoints expose process internals", "addr", addr)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		mainLog.Info("pprof listening", "addr", ln.Addr().String())
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			mainLog.Error("pprof server failed", "err", serr)
		}
	}()
	return func() { _ = srv.Close() }, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wolvesd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wolvesd", flag.ExitOnError)
	addr := fs.String("addr", ":8342", "listen address")
	workers := fs.Int("workers", 0, "fan-out width (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", engine.DefaultCacheSize, "oracle-cache capacity (0 disables)")
	liveWorkflows := fs.Int("live-workflows", engine.DefaultRegistryCapacity,
		"live workflow registry capacity (LRU-evicted beyond it)")
	optimalTimeout := fs.Duration("optimal-timeout", 2*time.Second,
		"per-request bound on the exponential optimal corrector (0 = unbounded)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
	requestTimeout := fs.Duration("request-timeout", server.DefaultRequestTimeout,
		"per-request handler deadline (0 = unbounded)")
	ingestConcurrency := fs.Int("ingest-concurrency", 0,
		"max concurrent run ingests before shedding with 503 (0 = max(2, workers))")
	dataDir := fs.String("data-dir", "",
		"durable registry directory: WAL + snapshots, recovered at boot (empty = in-memory)")
	fsyncFlag := fs.String("fsync", "batch",
		"WAL durability: none (write, never fsync), batch (group-commit), always (fsync per record)")
	snapshotBytes := fs.Int64("snapshot-bytes", 0,
		"snapshot trigger floor in journaled bytes per workflow (0 = default)")
	snapshotEvery := fs.Int("snapshot-every", 0,
		"additionally snapshot a workflow after this many journaled records (0 = size-based only)")
	probeBackoff := fs.Duration("probe-backoff", engine.DefaultProbeBackoffMin,
		"initial backoff between journal recovery probes while degraded")
	recoveryWorkers := fs.Int("recovery-workers", 0,
		"parallelism of boot recovery: snapshot loading and WAL replay (0 = GOMAXPROCS, 1 = sequential)")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof on this private listener (e.g. 127.0.0.1:6060; empty = disabled; never expose publicly)")
	traceSample := fs.Int64("trace-sample", 0,
		"record one in N requests as an in-process trace, tailed at GET /debug/traces (0 = tracing off)")
	slowQuery := fs.Duration("slow-query", 0,
		"log requests slower than this and count them in wolves_slow_queries_total (0 = off)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.SetLogLevel(level)
	obs.DefaultTracer.SetSampleN(*traceSample)
	obs.SetSlowQueryThreshold(*slowQuery)

	if *pprofAddr != "" {
		closePprof, err := startPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer closePprof()
	}

	eng := engine.New(
		engine.WithWorkers(*workers),
		engine.WithOracleCache(*cacheSize),
		engine.WithOptimalTimeout(*optimalTimeout),
	)
	reg := engine.NewRegistry(eng,
		engine.WithRegistryCapacity(*liveWorkflows),
		engine.WithProbeBackoff(*probeBackoff, engine.DefaultProbeBackoffMax))
	runStore := runs.New(reg, runs.WithWorkers(eng.Workers()))

	var store *storage.Store
	if *dataDir != "" {
		mode, err := storage.ParseFsyncMode(*fsyncFlag)
		if err != nil {
			return err
		}
		store, err = openStore(*dataDir, storage.Options{
			Fsync:           mode,
			SnapshotBytes:   *snapshotBytes,
			SnapshotEvery:   *snapshotEvery,
			RecoveryWorkers: *recoveryWorkers,
		})
		if err != nil {
			return fmt.Errorf("open data dir: %w", err)
		}
		// The snapshot path embeds run documents, so the provider must be
		// installed before anything can trigger a snapshot.
		store.SetRunProvider(runStore)
		stats, err := store.RecoverWithRuns(reg, runStore)
		if err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		reg.SetJournal(store)
		runStore.SetJournal(store)
		// One stable summary line (the "component=wolvesd msg=recovery"
		// pair is what restart smoke tests grep for); /metrics carries
		// the replay totals.
		mainLog.Info("recovery",
			"segments", stats.Segments,
			"snapshots", stats.Snapshots,
			"snapshots_dropped", stats.SnapshotsDropped,
			"replayed", stats.Replayed,
			"skipped", stats.Skipped,
			"workflows", stats.Workflows,
			"views", stats.Views,
			"runs", stats.Runs,
			"torn_bytes", stats.TornBytes,
			"workers", stats.Workers,
			"wall_millis", stats.WallMillis,
			"dir", *dataDir,
			"fsync", mode)
	}

	websrv := server.New(eng,
		server.WithRegistry(reg),
		server.WithRunStore(runStore),
		server.WithRequestTimeout(*requestTimeout),
		server.WithIngestConcurrency(*ingestConcurrency),
	)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           websrv.Handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		mainLog.Info("listening",
			"addr", *addr,
			"workers", eng.Workers(),
			"cache", *cacheSize,
			"live_workflows", *liveWorkflows,
			"optimal_timeout", *optimalTimeout,
			"trace_sample", *traceSample,
			"slow_query", *slowQuery)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if store != nil {
			store.Close()
		}
		return err
	case <-ctx.Done():
		mainLog.Info("shutting down")
		websrv.StartDraining() // /readyz flips to 503 before the listener closes
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if store != nil {
			// Requests are drained: fold every live workflow into a final
			// snapshot so the next boot replays nothing. If the checkpoint
			// fails, the WAL on disk is still authoritative — every
			// acknowledged transition is journaled — so the next boot
			// replays instead. Close regardless (it releases the directory
			// lock without fsyncing anything suspect) and exit non-zero so
			// supervisors notice the disk is misbehaving.
			cpErr := store.Checkpoint(reg)
			if cpErr != nil {
				mainLog.Error("final checkpoint failed; WAL remains authoritative", "err", cpErr)
			}
			if err := store.Close(); err != nil {
				return fmt.Errorf("close store: %w", err)
			}
			if cpErr != nil {
				return fmt.Errorf("final checkpoint: %w", cpErr)
			}
			mainLog.Info("checkpoint written")
		}
		return nil
	}
}
