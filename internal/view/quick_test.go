package view

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wolves/internal/workflow"
)

func quickWorkflow(rng *rand.Rand, n int) *workflow.Workflow {
	b := workflow.NewBuilder("qw")
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%d", i)
		b.AddTask(ids[i])
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				b.AddEdge(ids[perm[i]], ids[perm[j]])
			}
		}
	}
	wf, err := b.Build()
	if err != nil {
		panic(err)
	}
	return wf
}

func quickPartition(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(n)
	part := make([]int, n)
	for i := 0; i < k; i++ {
		part[i] = i
	}
	for i := k; i < n; i++ {
		part[i] = rng.Intn(k)
	}
	rng.Shuffle(n, func(i, j int) { part[i], part[j] = part[j], part[i] })
	return part
}

// Property: FromPartition → PartOf round-trips up to block renaming, and
// the composites exactly partition the tasks.
func TestQuickPartitionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		wf := quickWorkflow(rng, n)
		part := quickPartition(rng, n)
		v, err := FromPartition(wf, "p", part)
		if err != nil {
			return false
		}
		got := v.PartOf()
		// Same partition: tasks share a block in part iff they do in got.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (part[i] == part[j]) != (got[i] == got[j]) {
					return false
				}
			}
		}
		// Exact cover.
		seen := map[int]bool{}
		total := 0
		for ci := 0; ci < v.N(); ci++ {
			for _, m := range v.Composite(ci).Members() {
				if seen[m] {
					return false
				}
				seen[m] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeComposites reduces the composite count by k-1, keeps
// the partition exact, and ReplaceComposites with singleton blocks undoes
// nothing structurally (still a partition, composite count restored).
func TestQuickMergeThenSplitInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		wf := quickWorkflow(rng, n)
		v, err := FromPartition(wf, "p", quickPartition(rng, n))
		if err != nil || v.N() < 2 {
			return err == nil // degenerate but valid
		}
		a := rng.Intn(v.N())
		b := rng.Intn(v.N())
		if a == b {
			return true
		}
		merged, err := v.MergeComposites("mx", v.Composite(a).ID, v.Composite(b).ID)
		if err != nil {
			return false
		}
		if merged.N() != v.N()-1 {
			return false
		}
		// Split mx back into singletons.
		mx, _ := merged.CompositeByID("mx")
		var blocks [][]int
		for _, m := range mx.Members() {
			blocks = append(blocks, []int{m})
		}
		split, err := merged.ReplaceComposites(Split{ID: "mx", Blocks: blocks})
		if err != nil {
			return false
		}
		return split.N() == merged.N()-1+len(blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the view graph never misses an inter-composite edge and
// never contains an intra-composite edge.
func TestQuickViewGraphFaithful(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		wf := quickWorkflow(rng, n)
		v, err := FromPartition(wf, "p", quickPartition(rng, n))
		if err != nil {
			return false
		}
		q := v.Graph()
		ok := true
		wf.Graph().Edges(func(u, w int) {
			cu, cw := v.CompOf(u), v.CompOf(w)
			if cu == cw {
				return
			}
			if !q.HasEdge(cu, cw) {
				ok = false
			}
		})
		if !ok {
			return false
		}
		// Every quotient edge is witnessed by some task edge.
		witnessed := map[[2]int]bool{}
		wf.Graph().Edges(func(u, w int) {
			witnessed[[2]int{v.CompOf(u), v.CompOf(w)}] = true
		})
		q.Edges(func(a, b int) {
			if !witnessed[[2]int{a, b}] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
