package workflow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
)

// Fingerprint returns a stable content hash of the workflow's structure:
// the task IDs in index order followed by the canonical edge list. Two
// workflows with equal fingerprints have identical task-index spaces and
// dependency graphs, so every index-based artifact computed for one
// (reachability closures, soundness oracles, validation reports) is valid
// for the other. Names and kinds are deliberately excluded: they do not
// affect soundness.
//
// The hash is cached per structural generation: ordinary workflows are
// immutable and hash exactly once, while a live workflow mutated under
// the engine registry (see StructureChanged) recomputes lazily on the
// first Fingerprint call after each mutation batch.
func (w *Workflow) Fingerprint() string {
	w.fpMu.Lock()
	defer w.fpMu.Unlock()
	if w.fp != "" && w.fpGen == w.gen {
		return w.fp
	}
	// Everything goes through one buffer, flushed when full, so hashing
	// allocates nothing per task.
	hb := hashBuf{h: sha256.New()}
	var num [8]byte
	// Task count plus length-prefixed IDs: an unambiguous encoding.
	// (A bare separator byte would let IDs containing that byte make
	// structurally different workflows collide.)
	binary.LittleEndian.PutUint64(num[:], uint64(len(w.tasks)))
	feed(&hb, num[:])
	for _, t := range w.tasks {
		binary.LittleEndian.PutUint64(num[:], uint64(len(t.ID)))
		feed(&hb, num[:])
		feed(&hb, t.ID)
	}
	// Graph.Edges yields successors in insertion order, which is a
	// serialization artifact (two JSON files listing the same edges in
	// different orders must fingerprint identically), so sort the edge
	// list into canonical (u, v) order before hashing.
	edges := make([][2]int32, 0, w.g.M())
	for u := 0; u < w.g.N(); u++ {
		for _, v := range w.g.Succs(u) {
			edges = append(edges, [2]int32{int32(u), v})
		}
	}
	slices.SortFunc(edges, comparePairs)
	for _, e := range edges {
		binary.LittleEndian.PutUint32(num[:4], uint32(e[0]))
		binary.LittleEndian.PutUint32(num[4:], uint32(e[1]))
		feed(&hb, num[:])
	}
	hb.h.Write(hb.buf[:hb.n])
	w.fp = hex.EncodeToString(hb.h.Sum(nil))
	w.fpGen = w.gen
	return w.fp
}

// hashBuf feeds a hash through a fixed buffer: one Write per buffer
// filled instead of one per field.
type hashBuf struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

// feed appends s to hb's buffer, writing the buffer out whenever it
// fills.
func feed[S ~string | ~[]byte](hb *hashBuf, s S) {
	for len(s) > 0 {
		if hb.n == len(hb.buf) {
			hb.h.Write(hb.buf[:])
			hb.n = 0
		}
		c := copy(hb.buf[hb.n:], s)
		hb.n += c
		s = s[c:]
	}
}

// comparePairs orders edges by source, then target.
func comparePairs(a, b [2]int32) int {
	if a[0] != b[0] {
		return int(a[0] - b[0])
	}
	return int(a[1] - b[1])
}

// StructureChanged invalidates cached structural derivatives (the
// fingerprint) after an in-place mutation of the task list or dependency
// graph. Ordinary Workflow values are immutable and never need this; it
// is the hook for the engine registry, which owns live workflows and
// mutates them under its own write lock. Callers must guarantee that no
// structural readers run concurrently with the mutation itself.
func (w *Workflow) StructureChanged() {
	w.fpMu.Lock()
	w.gen++
	w.fpMu.Unlock()
}

// Same reports whether a and b are interchangeable for index-based
// computations: the same object, or structurally identical workflows
// (equal fingerprints). Packages that precompute per-workflow state
// (soundness oracles, lineage engines) use Same instead of pointer
// equality so cached state can serve structurally identical workflows
// decoded from separate requests.
func Same(a, b *Workflow) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.Fingerprint() == b.Fingerprint()
}
