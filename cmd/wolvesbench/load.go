package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolves/internal/engine"
	"wolves/internal/runs"
	"wolves/internal/server"
	"wolves/internal/storage"
)

// journal is what the registry and the run store journal into: the
// durable store, or the traced run's wrapper around it.
type journal interface {
	engine.Journal
	runs.Journal
}

// instance is one in-process wolvesd: the durable store in dir, the
// engine, live registry and run store, and the HTTP handler over them.
// It is wired the way cmd/wolvesd wires itself with its default flags.
type instance struct {
	dir   string
	store *storage.Store
	eng   *engine.Engine
	reg   *engine.Registry
	runs  *runs.Store
	h     http.Handler
}

// openInstance opens (or recovers) the store in dir and builds a server
// over it. wrap, when non-nil, wraps the store before it is installed as
// the registry's and run store's journal.
func openInstance(dir string, wrap func(*storage.Store) journal) (*instance, *storage.RecoveryStats, error) {
	st, err := storage.Open(dir, storage.Options{Fsync: storage.FsyncBatch})
	if err != nil {
		return nil, nil, fmt.Errorf("open store: %w", err)
	}
	eng := engine.New(engine.WithOptimalTimeout(2 * time.Second))
	reg := engine.NewRegistry(eng)
	rs := runs.New(reg, runs.WithWorkers(eng.Workers()))
	st.SetRunProvider(rs)
	stats, err := st.RecoverWithRuns(reg, rs)
	if err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	var j journal = st
	if wrap != nil {
		j = wrap(st)
	}
	reg.SetJournal(j)
	rs.SetJournal(j)
	srv := server.New(eng, server.WithRegistry(reg), server.WithRunStore(rs))
	return &instance{dir: dir, store: st, eng: eng, reg: reg, runs: rs, h: srv.Handler()}, stats, nil
}

// close closes the store without a checkpoint, as a crash would leave it.
func (in *instance) close() error { return in.store.Close() }

// doer sends one op and returns the status and, when keep is set, the
// response body. The HTTP client and the traced run's in-process caller
// both implement it.
type doer interface {
	do(ctx context.Context, o *op, keep bool) (status int, body []byte, err error)
}

// httpFront serves the current instance on a loopback listener. The
// handler is swapped when the instance restarts, so client connections
// survive a restart.
type httpFront struct {
	h    atomic.Pointer[http.Handler]
	srv  *http.Server
	base string
	done chan error
}

func startFront(in *instance) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	f.swap(in)
	f.srv = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*f.h.Load()).ServeHTTP(w, r) }),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { f.done <- f.srv.Serve(ln) }()
	return f, nil
}

func (f *httpFront) swap(in *instance) { f.h.Store(&in.h) }

// stop closes the listener and every connection and waits for Serve to
// return.
func (f *httpFront) stop() error {
	err := f.srv.Close()
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpClient sends ops over HTTP/1.1 keep-alive with at most conns open
// connections.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &httpClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *httpClient) do(ctx context.Context, o *op, keep bool) (int, []byte, error) {
	req, err := newRequest(ctx, c.base, o)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func newRequest(ctx context.Context, base string, o *op) (*http.Request, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, body)
	if err != nil {
		return nil, err
	}
	if o.body != nil {
		ct := "application/json"
		if o.ndjson {
			ct = "application/x-ndjson"
		}
		req.Header.Set("Content-Type", ct)
	}
	return req, nil
}

func ok(status int, err error) bool { return err == nil && status/100 == 2 }

// runSetup runs every workflow's set-up ops in order, workflows in
// parallel over workers clients. Set-up must succeed as a whole.
func runSetup(ctx context.Context, c doer, groups [][]op, workers int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := int(next.Add(1) - 1); g < len(groups); g = int(next.Add(1) - 1) {
				for i := range groups[g] {
					o := &groups[g][i]
					status, body, err := c.do(ctx, o, true)
					if !ok(status, err) {
						errs[w] = fmt.Errorf("set-up %s %s: status %d: %v %s", o.method, o.path, status, err, trim(body))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sample is one open-loop request's outcome.
type sample struct {
	lat time.Duration // to its response, from when it was due
	lag time.Duration // how late the generator sent it
	ok  bool
}

// lanes splits the open-loop schedule over nproc lanes. When the
// workload mixes workflow-ordered ops with free ones, ⌈nproc/2⌉ lanes
// carry the ordered ops (each workflow always on the same lane) and the
// rest carry the free ops round-robin; otherwise every lane is shared.
func lanes(ops []op, nproc int) [][]int {
	var ordered, free bool
	for i := range ops {
		ordered = ordered || ops[i].affine
		free = free || !ops[i].affine
	}
	w, r := nproc, nproc
	if ordered && free && nproc > 1 {
		w = (nproc + 1) / 2
		r = nproc - w
	}
	out := make([][]int, nproc)
	fi := 0
	for i := range ops {
		switch {
		case ops[i].affine:
			l := hashString(ops[i].wf) % w
			out[l] = append(out[l], i)
		case ordered && free && nproc > 1:
			out[w+fi%r] = append(out[w+fi%r], i)
			fi++
		default:
			out[fi%r] = append(out[fi%r], i)
			fi++
		}
	}
	return out
}

// openLoop sends each op when it is due, one request in flight per lane,
// and times it from its due time. A lane still busy when a request falls
// due sends it as soon as the previous one returns, so a stall charges
// its backlog to the requests behind it. A lane that was idle sleeps
// until the due time; how late it woke, and anything that kept it from
// sending (a GC pause, a busy CPU), counts too, and is also reported as
// send lag.
func openLoop(ctx context.Context, c doer, ops []op, lanes [][]int) []sample {
	samples := make([]sample, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			for _, i := range idx {
				due := start.Add(ops[i].due)
				sleepUntil(due)
				sent := time.Now()
				status, _, err := c.do(ctx, &ops[i], false)
				samples[i] = sample{lat: time.Since(due), lag: sent.Sub(due), ok: ok(status, err)}
			}
		}(lane)
	}
	wg.Wait()
	return samples
}

// closedResult is the outcome of the closed loop. rate is the highest
// number of requests completed in any one-second window: capacity is a
// peak, and interference from the shared host only ever lowers it.
type closedResult struct {
	done, failed int
	rate         float64
	wrapped      bool // a client ran out of ops and started over
}

// closedLoop runs clients that each send their next op as soon as the
// previous one returns, for d. Workflow-ordered ops of one workflow stay
// on one client; the others are dealt round-robin.
func closedLoop(ctx context.Context, c doer, ops []op, clients int, d time.Duration) closedResult {
	parts := make([][]int, clients)
	fi := 0
	for i := range ops {
		cl := fi % clients
		if ops[i].affine {
			cl = hashString(ops[i].wf) % clients
		} else {
			fi++
		}
		parts[cl] = append(parts[cl], i)
	}
	var done, failed atomic.Int64
	var wrapped atomic.Bool
	windows := make([]atomic.Int64, max(1, int(d.Round(time.Second)/time.Second)))
	width := d / time.Duration(len(windows))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			cycled := false
			for k := 0; time.Now().Before(deadline); k++ {
				if k == len(idx) {
					k = 0
					cycled = true
					wrapped.Store(true)
				}
				if cycled && ops[idx[k]].once {
					continue
				}
				status, _, err := c.do(ctx, &ops[idx[k]], false)
				if w := int(time.Since(start) / width); w < len(windows) {
					windows[w].Add(1)
				}
				done.Add(1)
				if !ok(status, err) {
					failed.Add(1)
				}
			}
		}(part)
	}
	wg.Wait()
	var peak int64
	for i := range windows {
		peak = max(peak, windows[i].Load())
	}
	return closedResult{done: int(done.Load()), failed: int(failed.Load()),
		rate: float64(peak) / width.Seconds(), wrapped: wrapped.Load()}
}

// scrape fetches /metrics and parses every sample line into a map keyed
// by the series as printed (name plus label set).
func scrape(ctx context.Context, c doer) (map[string]float64, error) {
	o := &op{method: "GET", path: "/metrics"}
	status, body, err := c.do(ctx, o, true)
	if !ok(status, err) {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func trim(b []byte) string {
	if len(b) > 300 {
		b = b[:300]
	}
	return string(b)
}
