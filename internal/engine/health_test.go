package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wolves/internal/view"
)

// flakyJournal is a scriptable RecoverableJournal: while broken, every
// journal call returns an unavailable-marked error; Probe fails until
// healed, then Resync records that it ran before the registry flipped
// back.
type flakyJournal struct {
	mu      sync.Mutex
	broken  bool
	resyncs int
	probes  int
	appends int
}

type unavailableErr struct{}

func (unavailableErr) Error() string            { return "disk on fire" }
func (unavailableErr) JournalUnavailable() bool { return true }

func (j *flakyJournal) call() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return unavailableErr{}
	}
	j.appends++
	return nil
}

func (j *flakyJournal) Registered(context.Context, *LiveState) error               { return j.call() }
func (j *flakyJournal) Committed(context.Context, *AppliedBatch, *LiveState) error { return j.call() }
func (j *flakyJournal) ViewAttached(context.Context, *LiveState, string, *view.View) error {
	return j.call()
}
func (j *flakyJournal) ViewDetached(context.Context, *LiveState, string) error { return j.call() }
func (j *flakyJournal) Deleted(ctx context.Context, id string) error           { return j.call() }
func (j *flakyJournal) Probe() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.probes++
	if j.broken {
		return unavailableErr{}
	}
	return nil
}
func (j *flakyJournal) Resync(*Registry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return unavailableErr{}
	}
	j.resyncs++
	return nil
}

func (j *flakyJournal) setBroken(b bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.broken = b
}

func TestRegistryDegradesAndRecovers(t *testing.T) {
	j := &flakyJournal{}
	reg := NewRegistry(New(), WithJournal(j),
		WithProbeBackoff(2*time.Millisecond, 20*time.Millisecond))
	lw := figure1Registered(t, reg)
	preRep, preVer, err := lw.Report("fig1b")
	if err != nil {
		t.Fatal(err)
	}

	// Break the journal: the next mutation applies in memory but comes
	// back as a typed degraded error, and the registry flips.
	j.setBroken(true)
	_, err = lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}}})
	if !IsCode(err, ErrDegraded) {
		t.Fatalf("mutate on broken journal: want degraded, got %v", err)
	}
	if !reg.Degraded() {
		t.Fatal("registry did not degrade after an unavailable journal error")
	}
	if v := lw.Version(); v != preVer+1 {
		t.Fatalf("mutation must stay applied in memory: version %d, want %d", v, preVer+1)
	}

	// While degraded: queries keep serving identical answers; every
	// write surface is gated with the typed error, before touching state.
	rep, _, err := lw.Report("fig1b")
	if err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	_ = rep
	_ = preRep
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"4", "5"}}}); !IsCode(err, ErrDegraded) {
		t.Fatalf("gated mutate: want degraded, got %v", err)
	}
	if v := lw.Version(); v != preVer+1 {
		t.Fatalf("gated mutate must not apply: version %d, want %d", v, preVer+1)
	}
	if err := lw.DetachViewCtx(context.Background(), "fig1b"); !IsCode(err, ErrDegraded) {
		t.Fatalf("gated detach: want degraded, got %v", err)
	}
	if err := reg.DeleteCtx(context.Background(), "phylo"); !IsCode(err, ErrDegraded) {
		t.Fatalf("gated delete: want degraded, got %v", err)
	}
	if _, err := reg.Get("phylo"); err != nil {
		t.Fatalf("gated delete removed the workflow from memory: %v", err)
	}
	if h := reg.Health(); h.Status != HealthDegraded || h.Degradations != 1 || h.LastError == "" {
		t.Fatalf("health while degraded: %+v", h)
	}

	// Heal the disk: the probe loop must reopen, resync BEFORE flipping
	// healthy, and then writes flow again.
	j.setBroken(false)
	deadline := time.Now().Add(5 * time.Second)
	for reg.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("registry never recovered; health %+v", reg.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
	j.mu.Lock()
	resyncs, probes := j.resyncs, j.probes
	j.mu.Unlock()
	if resyncs != 1 {
		t.Fatalf("resyncs = %d, want exactly 1", resyncs)
	}
	if probes == 0 {
		t.Fatal("no probes recorded")
	}
	h := reg.Health()
	if h.Status != HealthHealthy || h.Recoveries != 1 || h.Probes < int64(probes) {
		t.Fatalf("health after recovery: %+v", h)
	}
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"4", "5"}}}); err != nil {
		t.Fatalf("mutate after recovery: %v", err)
	}
}

func TestJournalFaultWithoutMarkerStaysInternal(t *testing.T) {
	reg := NewRegistry(New())
	err := reg.JournalFault("mutate", errors.New("plain failure"))
	if IsCode(err, ErrDegraded) {
		t.Fatal("unmarked journal error classified as degraded")
	}
	if reg.Degraded() {
		t.Fatal("unmarked journal error degraded the registry")
	}
	if !IsCode(err, ErrInternal) {
		t.Fatalf("want internal, got %v", err)
	}
}
