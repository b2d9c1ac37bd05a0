package history

import (
	"fmt"
	"slices"

	"wolves/internal/gen"
	"wolves/internal/view"
)

// pick draws an operation kind from the mix.
func (h *History) pick() Kind {
	total, k := 0, Kind(0)
	for _, w := range h.cfg.Mix {
		total += w
	}
	for x := h.rng.Intn(total); x >= h.cfg.Mix[k]; k++ {
		x -= h.cfg.Mix[k]
	}
	return k
}

// fresh returns an ID no earlier operation used.
func (h *History) fresh(prefix string) string {
	h.seq++
	return fmt.Sprintf("%s%d", prefix, h.seq)
}

// gen draws an operation of kind k from the model's state. A view
// operation without a view attaches one, and a lineage without a run
// ingests one.
func (h *History) gen(k Kind) Op {
	m, r := &h.m, h.rng
	task := func() string { return m.tasks[r.Intn(len(m.tasks))] }
	if (k == Detach || k == Correct) && len(m.views) == 0 {
		k = Attach
	}
	if k == Lineage && len(m.runs) == 0 {
		k = Ingest
	}
	op := Op{Kind: k}
	switch k {
	case Register:
		seed, lo, hi := r.Int63(), h.cfg.Tasks[0], h.cfg.Tasks[1]
		op.WF = gen.Layered(gen.LayeredConfig{Name: fmt.Sprintf("layered-%d", seed),
			Tasks: lo + r.Intn(hi-lo+1), Layers: 8, EdgeProb: 0.15, SkipProb: 0.03, Seed: seed})
	case Mutate:
		// Random edges (some close cycles, a few are self-loops), edges
		// already present, or a batch a cycle rejects after two edges
		// out of one task.
		switch r.Intn(7) {
		case 0:
			order, _ := m.workflow().Graph().TopoOrder()
			i := r.Intn(len(order) - 2)
			later := func() string { return m.tasks[order[i+1+r.Intn(len(order)-i-1)]] }
			u, v := m.tasks[order[i]], later()
			op.Edges = [][2]string{{u, v}, {u, later()}, {v, u}}
		case 1:
			for i := 0; i <= r.Intn(2) && len(m.edges) > 0; i++ {
				e := m.edges[r.Intn(len(m.edges))]
				op.Edges = append(op.Edges, [2]string{m.tasks[e[0]], m.tasks[e[1]]})
			}
		default:
			for i := 0; i <= r.Intn(3); i++ {
				op.Edges = append(op.Edges, [2]string{task(), task()})
			}
		}
	case Grow:
		for i := 0; i <= r.Intn(2); i++ {
			op.Tasks = append(op.Tasks, h.fresh("n"))
			if r.Intn(4) > 0 {
				op.Edges = append(op.Edges, [2]string{task(), op.Tasks[i]})
			}
		}
	case Attach:
		wf, n, v := m.workflow(), len(m.tasks), (*view.View)(nil)
		switch op.View = h.fresh("v"); r.Intn(3) {
		case 0:
			v = gen.IntervalView(wf, 2+n/8, op.View)
		case 1:
			v = gen.RandomView(wf, 2+n/5, r.Int63(), op.View)
		default:
			v = gen.InjectUnsound(gen.RandomView(wf, 8+r.Intn(5), r.Int63(), op.View), 3, r.Int63())
		}
		op.Comps = Comps(v)
	case Detach, Correct:
		op.View, op.Form = m.views[r.Intn(len(m.views))].id, r.Intn(2)
	case Ingest:
		n := 1
		if op.Form = r.Intn(3); op.Form == 2 {
			n = 3 // a batch
		}
		for range n {
			op.Runs = append(op.Runs, h.genRun())
		}
	case Lineage:
		run := m.runs[r.Intn(len(m.runs))]
		op.Run, op.Art, op.Tasks = run.Run, run.Artifacts[r.Intn(len(run.Artifacts))]["id"], []string{task(), task()}
	}
	return op
}

// genRun draws a run that conforms to the model's workflow: each
// invoked task generates one artifact, and each used edge consumes an
// artifact of a task that reaches the consumer, or the run's external
// input. Artifacts and used edges come in random order.
func (h *History) genRun() *runDoc {
	m, r := &h.m, h.rng
	run := &runDoc{Run: h.fresh("r")}
	run.Artifacts = []map[string]string{{"id": run.Run + ":in"}}
	var made []int
	for u, id := range m.tasks {
		if r.Intn(3) > 0 {
			made, run.Artifacts = append(made, u), append(run.Artifacts, map[string]string{"id": run.Run + ":" + id, "generated_by": id})
		}
	}
	for _, c := range made {
		anc := slices.DeleteFunc(slices.Clone(made), func(p int) bool { return p == c || !m.engine().Reaches(p, c) })
		for i := 0; i < 2 && len(anc) > 0; i++ {
			run.Used = append(run.Used, map[string]string{"process": m.tasks[c], "artifact": run.Run + ":" + m.tasks[anc[r.Intn(len(anc))]]})
		}
		if r.Intn(10) == 0 {
			run.Used = append(run.Used, map[string]string{"process": m.tasks[c], "artifact": run.Run + ":in"})
		}
	}
	r.Shuffle(len(run.Artifacts), func(i, j int) { run.Artifacts[i], run.Artifacts[j] = run.Artifacts[j], run.Artifacts[i] })
	r.Shuffle(len(run.Used), func(i, j int) { run.Used[i], run.Used[j] = run.Used[j], run.Used[i] })
	return run
}
