package workflow

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestTaskIndexMatchesMap drives the open-addressing index the way live
// workflows do — build, extend past growth, roll back suffixes — and
// checks every lookup against a map, hits and misses, by string and by
// bytes. Tables of 8 to 64 slots make probe runs wrap past the end.
func TestTaskIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		var tasks []Task
		ref := map[string]int{}
		x := newTaskIndex(rng.Intn(4))
		check := func() {
			t.Helper()
			for i := 0; i < 2*len(tasks)+8; i++ {
				id := "t" + strconv.Itoa(rng.Intn(400))
				if i < len(tasks) {
					id = tasks[i].ID // every member, then random probes
				}
				want, wok := ref[id]
				got, ok := x.lookup(tasks, id)
				gotB, okB := x.lookupBytes(tasks, []byte(id))
				if ok != wok || okB != wok || (wok && (got != want || gotB != want)) {
					t.Fatalf("trial %d: lookup %q = %d,%v / %d,%v, want %d,%v", trial, id, got, ok, gotB, okB, want, wok)
				}
			}
		}
		for step := 0; step < 30; step++ {
			if len(tasks) > 0 && rng.Intn(3) == 0 {
				n := rng.Intn(len(tasks))
				for i := len(tasks) - 1; i >= n; i-- {
					x.removeLast(tasks, i)
					delete(ref, tasks[i].ID)
				}
				tasks = tasks[:n]
			} else {
				for k := rng.Intn(20); k > 0; k-- {
					id := "t" + strconv.Itoa(rng.Intn(400))
					if _, dup := ref[id]; dup {
						if x.add(append(tasks, Task{ID: id}), len(tasks)) {
							t.Fatalf("add %q missed the duplicate", id)
						}
						continue
					}
					tasks = append(tasks, Task{ID: id})
					if !x.add(tasks, len(tasks)-1) {
						t.Fatalf("add %q reported a duplicate", id)
					}
					ref[id] = len(tasks) - 1
				}
			}
			check()
		}
	}
}
