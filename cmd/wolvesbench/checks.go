package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"wolves/internal/engine"
	"wolves/internal/provenance"
	"wolves/internal/runs"
	"wolves/internal/soundness"
	"wolves/internal/workflow"
)

// checks is the outcome of one quiesced correctness pass.
type checks struct {
	failures  []string
	attempted int // requests the pass sent
	// bodies holds the run lists and sampled lineage answers, which must
	// come back byte for byte after a restart.
	bodies map[string][]byte
}

func (k *checks) failf(format string, args ...any) {
	k.failures = append(k.failures, fmt.Sprintf(format, args...))
}

// get sends one check request and returns its body, recording a failure
// for anything but a 2xx.
func (k *checks) get(ctx context.Context, c doer, o *op) ([]byte, bool) {
	k.attempted++
	status, body, err := c.do(ctx, o, true)
	if !ok(status, err) {
		k.failf("%s %s: status %d: %v %s", o.method, o.path, status, err, trim(body))
		return nil, false
	}
	return body, true
}

// runChecks verifies the instance once traffic has stopped:
//   - every live view report equals a full validation of the view
//     against a fresh oracle over the workflow's current state;
//   - every sampled lineage answer lists exactly the tasks a
//     from-scratch provenance engine finds, restricted to the run's
//     invoked tasks.
//
// It also collects the run lists and answer bodies for compareRestart.
func runChecks(ctx context.Context, c doer, in *instance, p *plan) *checks {
	k := &checks{bodies: make(map[string][]byte)}
	ids := in.reg.IDs()
	sort.Strings(ids)

	for _, id := range ids {
		lw, err := in.reg.Peek(id)
		if err != nil {
			k.failf("workflow %s vanished during checks: %v", id, err)
			continue
		}
		want := map[string][]byte{}
		var vids []string
		if err := lw.State(func(st *engine.LiveState) error {
			o := soundness.NewOracle(st.Workflow)
			for _, av := range st.Views {
				want[av.ID] = mustJSON(soundness.ValidateView(o, av.View))
				vids = append(vids, av.ID)
			}
			return nil
		}); err != nil {
			k.failf("state of %s: %v", id, err)
			continue
		}
		for _, vid := range vids {
			body, okk := k.get(ctx, c, &op{kind: kReport, method: "POST", wf: id, vid: vid,
				path: "/v1/workflows/" + id + "/views/" + vid + "/validate"})
			if !okk {
				continue
			}
			var resp struct {
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				k.failf("report %s/%s: %v", id, vid, err)
				continue
			}
			if !jsonEqual(resp.Report, want[vid]) {
				k.failf("report %s/%s differs from a full validation:\n  live:      %s\n  reference: %s",
					id, vid, trim(resp.Report), trim(want[vid]))
			}
		}
	}

	// Run lists of every workflow the plan ingested runs into.
	withRuns := map[string]bool{}
	for _, q := range p.checks {
		withRuns[q.wf] = true
	}
	for _, id := range ids {
		if !withRuns[id] {
			continue
		}
		if body, okk := k.get(ctx, c, &op{kind: kRunList, method: "GET", wf: id,
			path: "/v1/workflows/" + id + "/runs"}); okk {
			k.bodies["runs "+id] = body
		}
	}

	// Lineage answers against a from-scratch reference, one workflow at a
	// time so each reference engine is built once.
	byWF := map[string][]int{}
	for i, q := range p.checks {
		byWF[q.wf] = append(byWF[q.wf], i)
	}
	for _, id := range sortedKeys(byWF) {
		lw, err := in.reg.Peek(id)
		if err != nil {
			k.failf("workflow %s missing for lineage checks: %v", id, err)
			continue
		}
		want := make(map[int][]string)
		if err := lw.State(func(st *engine.LiveState) error {
			refs := &refEngines{st: st, views: map[string]*provenance.ViewEngine{}}
			for _, i := range byWF[id] {
				cq := p.checks[i]
				ref, err := refs.lineage(cq.q, p.runDocs[runKey(id, cq.q.Run)])
				if err != nil {
					return err
				}
				want[i] = ref
			}
			return nil
		}); err != nil {
			k.failf("lineage reference for %s: %v", id, err)
			continue
		}
		for _, i := range byWF[id] {
			cq := p.checks[i]
			o := lineageOp(id, cq.q)
			body, okk := k.get(ctx, c, &o)
			if !okk {
				continue
			}
			k.bodies[fmt.Sprintf("lineage %d", i)] = body
			var ans struct {
				Tasks []string `json:"tasks"`
			}
			if err := json.Unmarshal(body, &ans); err != nil {
				k.failf("lineage %s: %v", o.path, err)
				continue
			}
			if !slices.Equal(ans.Tasks, want[i]) {
				k.failf("lineage %s: %d tasks, reference has %d (first difference at %d)",
					o.path, len(ans.Tasks), len(want[i]), firstDiff(ans.Tasks, want[i]))
			}
		}
	}
	return k
}

// refEngines builds the from-scratch provenance engines over one live
// workflow's state lazily, once per workflow and view.
type refEngines struct {
	st    *engine.LiveState
	exact *provenance.Engine
	views map[string]*provenance.ViewEngine
}

// lineage computes a lineage answer's task list from scratch: the
// workflow-level (exact) or view-level engine over the current state,
// restricted to the tasks the run invoked, in task-index order.
func (r *refEngines) lineage(q runs.Query, m *runModel) ([]string, error) {
	wf := r.st.Workflow
	t, okk := wf.Index(m.producer[q.Artifact])
	if !okk {
		return nil, fmt.Errorf("artifact %s: producer %q not in workflow", q.Artifact, m.producer[q.Artifact])
	}
	anc := q.Direction != runs.DirDescendants
	var idx []int
	if q.Level == runs.LevelExact {
		if r.exact == nil {
			r.exact = provenance.NewEngine(wf)
		}
		if anc {
			idx = r.exact.Lineage(t)
		} else {
			idx = r.exact.Descendants(t)
		}
	} else {
		ve := r.views[q.View]
		if ve == nil {
			for _, av := range r.st.Views {
				if av.ID == q.View {
					ve = provenance.NewViewEngine(av.View)
					r.views[q.View] = ve
				}
			}
		}
		if ve == nil {
			return nil, fmt.Errorf("view %q not attached", q.View)
		}
		if anc {
			idx = ve.TaskLineage(t)
		} else {
			idx = ve.TaskDescendants(t)
		}
	}
	return invokedIDs(wf, idx, m), nil
}

func invokedIDs(wf *workflow.Workflow, idx []int, m *runModel) []string {
	out := []string{}
	for _, u := range idx {
		if id := wf.Task(u).ID; m.invoked[id] {
			out = append(out, id)
		}
	}
	return out
}

// compareRestart reports every run list or answer whose bytes changed
// across a restart.
func compareRestart(before, after *checks) []string {
	var out []string
	for _, key := range sortedKeys(before.bodies) {
		if b := after.bodies[key]; !bytes.Equal(before.bodies[key], b) {
			out = append(out, fmt.Sprintf("%s changed across restart:\n  before: %s\n  after:  %s",
				key, trim(before.bodies[key]), trim(b)))
		}
	}
	return out
}

// jsonEqual compares two JSON documents after compaction.
func jsonEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
