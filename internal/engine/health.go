package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wolves/internal/obs"
)

// healthLog narrates the degraded-mode state machine: every transition
// is one structured line, so an operator can line up a burst of 503s
// with the exact degrade/recover timestamps.
var healthLog = obs.NewLogger("engine")

// journalUnavailable is the marker interface a journal's errors implement
// to signal the backing store is unavailable as a whole (not just one
// operation). The storage package's sticky store failure implements it;
// the engine classifies through errors.As so it never has to import the
// storage package.
type journalUnavailable interface {
	JournalUnavailable() bool
}

// RecoverableJournal is a Journal whose backing store can be probed and
// brought back after a failure. Probe attempts to reopen the store's
// underlying resources; Resync, called only after a successful Probe and
// before the registry accepts writes again, makes the store's durable
// state equal to the registry's in-memory state (which is authoritative:
// operations that failed mid-journal stayed applied in memory).
type RecoverableJournal interface {
	Journal
	Probe() error
	Resync(*Registry) error
}

// Health status strings, as served by /readyz.
const (
	HealthHealthy  = "healthy"
	HealthDegraded = "degraded"
)

// HealthInfo is a snapshot of the registry's degraded-mode state machine.
type HealthInfo struct {
	// Status is "healthy" or "degraded".
	Status string `json:"status"`
	// Degradations counts healthy→degraded transitions since boot;
	// Recoveries counts the reverse; Probes counts journal reopen
	// attempts (successful or not).
	Degradations int64 `json:"degradations"`
	Recoveries   int64 `json:"recoveries"`
	Probes       int64 `json:"probes"`
	// DegradedSeconds is how long the current degradation has lasted;
	// zero when healthy.
	DegradedSeconds float64 `json:"degraded_seconds,omitempty"`
	// LastError is the journal error that caused the most recent
	// degradation; kept after recovery for post-mortems.
	LastError string `json:"last_error,omitempty"`
}

// Probe backoff defaults; see WithProbeBackoff.
const (
	DefaultProbeBackoffMin = 250 * time.Millisecond
	DefaultProbeBackoffMax = 5 * time.Second
)

// health is the registry's degraded-mode state, embedded in Registry.
type health struct {
	degradedFlag atomic.Bool // fast-path gate read by every write op

	mu            sync.Mutex
	degraded      bool
	probing       bool
	degradedSince time.Time
	lastError     string
	degradations  int64
	recoveries    int64
	probes        int64
}

// WithProbeBackoff sets the degraded-mode probe loop's backoff window:
// the first reopen attempt runs after min, doubling (with jitter) up to
// max. Non-positive values keep the defaults.
func WithProbeBackoff(min, max time.Duration) RegistryOption {
	return func(r *Registry) {
		if min > 0 {
			r.probeMin = min
		}
		if max >= r.probeMin {
			r.probeMax = max
		} else {
			r.probeMax = r.probeMin
		}
	}
}

// Degraded reports whether the registry is in degraded read-only mode.
func (r *Registry) Degraded() bool { return r.health.degradedFlag.Load() }

// Health returns the registry's current health counters.
func (r *Registry) Health() HealthInfo {
	h := &r.health
	h.mu.Lock()
	defer h.mu.Unlock()
	info := HealthInfo{
		Status:       HealthHealthy,
		Degradations: h.degradations,
		Recoveries:   h.recoveries,
		Probes:       h.probes,
		LastError:    h.lastError,
	}
	if h.degraded {
		info.Status = HealthDegraded
		info.DegradedSeconds = time.Since(h.degradedSince).Seconds()
	}
	return info
}

// CheckWritable gates journaled write operations: it returns a typed
// degraded error while the registry is in degraded read-only mode, nil
// otherwise. The run store calls it before accepting an ingest; the
// registry's own write paths call checkWritable directly.
func (r *Registry) CheckWritable(op string) error {
	if ee := r.checkWritable(op); ee != nil {
		return ee
	}
	return nil
}

func (r *Registry) checkWritable(op string) *Error {
	if r.health.degradedFlag.Load() {
		return errf(ErrDegraded, op,
			"journal unavailable; registry is degraded read-only (queries keep serving, retry writes later)")
	}
	return nil
}

// JournalFault classifies an error returned by a journal call. A store
// that reports itself unavailable flips the registry into degraded
// read-only mode (starting the background reopen probe) and the caller
// gets a typed degraded error; any other journal error wraps as usual.
// The run store routes its journal errors through here too.
func (r *Registry) JournalFault(op string, err error) error {
	if err == nil {
		return nil
	}
	var ju journalUnavailable
	if errors.As(err, &ju) && ju.JournalUnavailable() {
		r.degrade(err)
		return &Error{Code: ErrDegraded, Op: op,
			Message: "journal unavailable; applied in memory only, registry is degraded read-only: " + err.Error(),
			Err:     err}
	}
	return wrapErr(op, err)
}

// degrade flips the registry into degraded mode (idempotently) and
// starts the probe loop when the journal is recoverable.
func (r *Registry) degrade(cause error) {
	h := &r.health
	h.mu.Lock()
	h.lastError = cause.Error()
	if h.degraded {
		h.mu.Unlock()
		return
	}
	h.degraded = true
	h.degradedSince = time.Now()
	h.degradations++
	start := false
	if _, ok := r.journal.(RecoverableJournal); ok && !h.probing {
		h.probing = true
		start = true
	}
	h.mu.Unlock()
	h.degradedFlag.Store(true)
	obs.MHealthTransitions.With("degraded").Inc()
	healthLog.Error("registry degraded read-only", "cause", cause)
	if start {
		go r.probeLoop(r.journal.(RecoverableJournal))
	}
}

// probeLoop attempts to reopen the journal under exponential backoff
// with jitter, then resyncs the store to the registry's in-memory state,
// and only then flips the registry back to healthy — so no write can
// reach the reopened store before its durable state again matches
// memory. Exits when recovery succeeds; a later degradation starts a
// fresh loop.
func (r *Registry) probeLoop(rj RecoverableJournal) {
	h := &r.health
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := r.probeMin
	for {
		// Full jitter over [backoff/2, backoff): herds of recovering
		// registries must not hammer a shared disk in lockstep.
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		time.Sleep(d)
		h.mu.Lock()
		h.probes++
		h.mu.Unlock()
		obs.MHealthTransitions.With("probing").Inc()
		if err := rj.Probe(); err == nil {
			if err := rj.Resync(r); err == nil {
				h.mu.Lock()
				h.degraded = false
				h.probing = false
				h.recoveries++
				since := h.degradedSince
				h.mu.Unlock()
				h.degradedFlag.Store(false)
				obs.MHealthTransitions.With("healthy").Inc()
				healthLog.Info("registry recovered",
					"degraded_for", time.Since(since).Round(time.Millisecond))
				return
			}
		}
		if backoff *= 2; backoff > r.probeMax {
			backoff = r.probeMax
		}
	}
}
