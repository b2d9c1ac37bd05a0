package runs

import "hash/maphash"

// idSeed keys the ID hash, once per process.
var idSeed = maphash.MakeSeed()

// An ID index finds an ID among consecutive IDs of an ID list: IDs laid
// end to end in one string or byte buffer, ID k ending at end[k] and
// starting where ID k-1 ends (ID 0 at offset 0). It is an
// open-addressing hash table (linear probing, at most half full) of
// positions plus one, zero marking a free slot; the keys are the IDs
// the list already holds. So a run's artifact index is one []int32 of 8
// to 16 bytes per artifact carved from the run's slab, where a
// map[string]int32 took 53 (13.7 KB for a 256-artifact run).
//
// The workflow's task index (internal/workflow/index.go) is the same
// table over a []Task. The two keep separate probe loops because
// sharing one means fetching the key through a callback, an indirect
// call on every probe.

// emptySlots returns an empty index with room for n IDs, reusing s: the
// smallest power of two of slots at least 2n, so the table stays at
// most half full.
func emptySlots(s []int32, n int) []int32 {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(s) < size {
		return make([]int32, size)
	}
	s = s[:size]
	clear(s)
	return s
}

// idAt returns ID k of the ID list ids, end.
func idAt[K ~string | ~[]byte](ids K, end []int32, k int) K {
	lo := int32(0)
	if k > 0 {
		lo = end[k-1]
	}
	return ids[lo:end[k]]
}

// probeID walks key's probe sequence from its hash h through slots,
// whose position i is ID base+i of the list ids, end: it returns the
// slot holding key (found), or else the free slot that ends the
// sequence.
func probeID[K, S ~string | ~[]byte](slots []int32, ids K, end []int32, base int, h uint64, key S) (slot int, found bool) {
	mask := len(slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := slots[s]
		if e == 0 {
			return s, false
		}
		if string(idAt(ids, end, base+int(e)-1)) == string(key) {
			return s, true
		}
	}
}

// addID indexes position i, ID base+i of the list ids, end, into slots,
// which must have room for it. It reports false, changing nothing, when
// an indexed position holds the same ID.
func addID(slots []int32, ids []byte, end []int32, base, i int) bool {
	key := idAt(ids, end, base+i)
	s, dup := probeID(slots, ids, end, base, maphash.Bytes(idSeed, key), key)
	if dup {
		return false
	}
	slots[s] = int32(i) + 1
	return true
}

// lookupID returns the position of key among the IDs indexed in slots,
// as addID indexed them.
func lookupID(slots []int32, ids []byte, end []int32, base int, key []byte) (int32, bool) {
	s, ok := probeID(slots, ids, end, base, maphash.Bytes(idSeed, key), key)
	return slots[s] - 1, ok
}
