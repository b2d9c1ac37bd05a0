package workflow

import "hash/maphash"

// indexSeed keys the task-ID hash, once per process.
var indexSeed = maphash.MakeSeed()

// taskIndex maps task IDs to their dense indices. It is an
// open-addressing hash table (linear probing, at most half full) of
// task indices plus one, zero marking a free slot; the keys are the IDs
// the task list already holds. So the whole index is one []int32 of 8
// to 16 bytes per task, where a map[string]int takes about three times
// that (the resident workflows of the onboard benchmark hold 1.6 MiB
// more heap with one) and a hash table per thousand tasks. Tasks join
// in index order and leave from the end (TruncateTasks), so a removal
// only has to undo the latest insertion.
type taskIndex struct{ slots []int32 }

// newTaskIndex returns an empty index with room for n tasks.
func newTaskIndex(n int) taskIndex {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return taskIndex{slots: make([]int32, size)}
}

// lookup returns the index of the task with ID id.
func (x taskIndex) lookup(tasks []Task, id string) (int, bool) {
	s, ok := probe(x, tasks, maphash.String(indexSeed, id), id)
	return int(x.slots[s]) - 1, ok
}

// lookupBytes is lookup for an ID held as bytes; it materializes no
// string.
func (x taskIndex) lookupBytes(tasks []Task, id []byte) (int, bool) {
	s, ok := probe(x, tasks, maphash.Bytes(indexSeed, id), id)
	return int(x.slots[s]) - 1, ok
}

// probe walks id's probe sequence from its hash h: it returns the slot
// holding id (found), or else the free slot that ends the sequence.
func probe[S ~string | ~[]byte](x taskIndex, tasks []Task, h uint64, id S) (slot int, found bool) {
	mask := len(x.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := x.slots[s]
		if e == 0 {
			return s, false
		}
		if tasks[e-1].ID == string(id) {
			return s, true
		}
	}
}

// add indexes task i of tasks, whose tasks before i are indexed and
// after it are not, growing the table when it would pass half full. It
// reports false, changing nothing, when another task already has the
// ID.
func (x *taskIndex) add(tasks []Task, i int) bool {
	if 2*(i+1) > len(x.slots) {
		grown := newTaskIndex(2 * (i + 1))
		for j := 0; j < i; j++ {
			grown.add(tasks, j)
		}
		*x = grown
	}
	s, dup := probe(*x, tasks, maphash.String(indexSeed, tasks[i].ID), tasks[i].ID)
	if dup {
		return false
	}
	x.slots[s] = int32(i) + 1
	return true
}

// removeLast drops task i of tasks, the last one indexed. Every other
// entry went in before it, so none probed past its slot: freeing the
// slot leaves the table as it was before the task's add.
func (x *taskIndex) removeLast(tasks []Task, i int) {
	if s, ok := probe(*x, tasks, maphash.String(indexSeed, tasks[i].ID), tasks[i].ID); ok {
		x.slots[s] = 0
	}
}
