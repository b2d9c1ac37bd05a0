package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"wolves/internal/dag"
	"wolves/internal/gen"
	"wolves/internal/provenance"
	"wolves/internal/provenance/provenancetest"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// edgeList returns g's edges sorted, for set comparison.
func edgeList(g *dag.Graph) [][2]int {
	var out [][2]int
	g.Edges(func(u, v int) { out = append(out, [2]int{u, v}) })
	slices.SortFunc(out, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return out
}

// TestViewLabelsFollowMaintainedQuotient drives a random mutate history
// — single edges, 8-edge batches and 2-task batches — over a layered
// workflow with an interval view (acyclic quotient) and an
// InjectUnsound view (cyclic quotient). After every commit the
// maintained quotient must hold exactly View.Graph()'s edges, the
// epoch's view labels must answer every pair like a fresh build over
// View.Graph() (and its reverse), and a commit must reuse the previous
// epoch's label pointers exactly when it adds no composite and leaves
// quotient reachability unchanged.
func TestViewLabelsFollowMaintainedQuotient(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(21))
	wf := gen.Layered(gen.LayeredConfig{Name: "q", Tasks: n, Layers: 12, EdgeProb: 0.08, Seed: 21})
	order := wf.TopoIDs()
	reg := NewRegistry(New())
	lw, err := reg.RegisterCtx(context.Background(), "q", wf)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]func(*workflow.Workflow) *view.View{
		"iv": func(wf *workflow.Workflow) *view.View { return gen.IntervalView(wf, n/8, "iv") },
		"uv": func(wf *workflow.Workflow) *view.View {
			return gen.InjectUnsound(gen.IntervalView(wf, n/8, "uv"), 4, 22)
		},
	}
	vids := []string{"iv", "uv"}
	for _, vid := range vids {
		build := views[vid]
		if _, _, err := lw.AttachViewCtx(context.Background(), vid, func(wf *workflow.Workflow) (*view.View, error) {
			return build(wf), nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	type state struct {
		k     int
		reach *dag.Closure
		ev    *EpochView
	}
	snapshot := func() map[string]state {
		lw.mu.RLock()
		defer lw.mu.RUnlock()
		ep := lw.epoch.Load()
		out := make(map[string]state, len(vids))
		for _, vid := range vids {
			lv := lw.views[vid]
			vg := lv.v.Graph()
			if got, want := edgeList(lv.q), edgeList(vg); lv.q.N() != vg.N() || !reflect.DeepEqual(got, want) {
				t.Fatalf("view %s: maintained quotient (%d nodes, %d edges) != View.Graph() (%d nodes, %d edges)",
					vid, lv.q.N(), len(got), vg.N(), len(want))
			}
			ev := ep.View(vid)
			fwd, rev := dag.BuildLabels(vg), dag.BuildLabels(vg.Reversed())
			for a := 0; a < vg.N(); a++ {
				for b := 0; b < vg.N(); b++ {
					if ev.Labels().Reaches(a, b) != fwd.Reaches(a, b) || ev.RevLabels().Reaches(a, b) != rev.Reaches(a, b) {
						t.Fatalf("view %s: epoch labels disagree with a fresh build at (%d,%d)", vid, a, b)
					}
				}
			}
			out[vid] = state{k: vg.N(), reach: vg.Reachability(), ev: ev}
		}
		return out
	}

	prev := snapshot()
	reused, rebuilt := map[string]int{}, map[string]int{}
	sawCycle := false
	next := 0
	for step := 0; step < 150; step++ {
		var m Mutation
		switch r := rng.Intn(10); {
		case r < 6:
			m.Edges = forwardEdges(rng, order, 1)
		case r < 9:
			m.Edges = forwardEdges(rng, order, 8)
		default:
			for i := 0; i < 2; i++ {
				id := fmt.Sprintf("x%d", next)
				next++
				p := 1 + rng.Intn(len(order)-1)
				m.Tasks = append(m.Tasks, workflow.Task{ID: id})
				m.Edges = append(m.Edges, [2]string{order[rng.Intn(p)], id}, [2]string{id, order[p+rng.Intn(len(order)-p)]})
			}
		}
		res, err := lw.MutateCtx(context.Background(), m)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.EdgesAdded == 0 && res.TasksAdded == 0 {
			continue
		}
		cur := snapshot()
		for _, vid := range vids {
			p, c := prev[vid], cur[vid]
			same := c.k == p.k && sameReach(c.reach, p.reach)
			carried := c.ev.Labels() == p.ev.Labels() && c.ev.RevLabels() == p.ev.RevLabels()
			if same != carried {
				t.Fatalf("step %d view %s: quotient reachability unchanged=%v but labels carried=%v", step, vid, same, carried)
			}
			if carried {
				reused[vid]++
			} else {
				rebuilt[vid]++
			}
			sawCycle = sawCycle || !c.ev.View().Graph().IsAcyclic()
		}
		prev = cur
	}
	for _, vid := range vids {
		if reused[vid] == 0 || rebuilt[vid] == 0 {
			t.Fatalf("view %s: %d carried, %d rebuilt; the history must exercise both", vid, reused[vid], rebuilt[vid])
		}
	}
	if !sawCycle {
		t.Fatal("the unsound view's quotient never had a cycle; strengthen the workload")
	}
}

// sameReach reports whether two closures over the same node count hold
// the same pairs.
func sameReach(a, b *dag.Closure) bool {
	for u := 0; u < a.N(); u++ {
		for v := 0; v < a.N(); v++ {
			if a.Reaches(u, v) != b.Reaches(u, v) {
				return false
			}
		}
	}
	return true
}

// forwardEdges draws k edges going forward in the topological order, so
// no batch can close a cycle.
func forwardEdges(rng *rand.Rand, order []string, k int) [][2]string {
	out := make([][2]string, k)
	for i := range out {
		u := rng.Intn(len(order) - 1)
		v := u + 1 + rng.Intn(min(len(order)/8, len(order)-1-u))
		out[i] = [2]string{order[u], order[v]}
	}
	return out
}

// TestReadAuditDoesNotWaitOnWriteLock pins that an audited Read never
// takes the workflow lock: with the write lock held, an uncached audit
// is still built (from the epoch) and returned, and concurrent first
// readers all return the one audit that won the cache, equal to the
// from-scratch reference audit.
func TestReadAuditDoesNotWaitOnWriteLock(t *testing.T) {
	reg := NewRegistry(New())
	lw := figure1Registered(t, reg)
	if _, err := lw.MutateCtx(context.Background(), Mutation{Edges: [][2]string{{"3", "4"}, {"4", "5"}}}); err != nil {
		t.Fatal(err)
	}
	const readers = 4
	audits := make(chan *provenance.ViewAudit, readers)
	var wg sync.WaitGroup
	lw.mu.Lock()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, a, err := lw.Read("fig1b")
			if err != nil {
				t.Error(err)
			}
			audits <- a
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		lw.mu.Unlock()
		t.Fatal("an audited Read waited on the workflow's write lock")
	}
	want := provenancetest.Reference(lw.views["fig1b"].v)
	lw.mu.Unlock()
	close(audits)
	var first *provenance.ViewAudit
	for a := range audits {
		if first == nil {
			first = a
		}
		if a != first {
			t.Fatal("concurrent first readers returned different audits")
		}
	}
	if err := want.Diff(first); err != nil {
		t.Fatalf("epoch audit: %v", err)
	}
	if _, again, _ := lw.Read("fig1b"); again != first {
		t.Fatal("the audit was not cached on the epoch")
	}
}
