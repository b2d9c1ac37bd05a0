// Binary canonical run documents (PR 9). The canonical document of an
// ingested run — the bytes the WAL and snapshots carry, and recovery
// replays — used to be the JSON re-encoding of the normalized wire
// shape; for a dense interned run that is pure overhead: field names,
// quoting, and a reflective json.Marshal per ingest. The binary form
// below writes the same normalized content (implicit invocations
// materialized, everything in dense order) as length-prefixed binwire,
// straight from the interned representation.
//
// Binary documents open with the version tag docBinV1 (0xD1), which can
// never open a JSON document (JSON docs start with '{'), so
// ingestScratch.decodeDoc sniffs the first byte and both forms decode
// through the same path — JSON-era data dirs restore unchanged, byte
// for byte, and restored documents keep whichever encoding they were
// written with.
package runs

import (
	"fmt"
	"slices"

	"wolves/internal/binwire"
	"wolves/internal/workflow"
)

// docBinV1 tags the first binary run-document format; unknown tags are
// rejected rather than guessed at.
const docBinV1 = 0xD1

// appendDocBinary encodes the run's canonical document from the run and
// its used pairs in document order:
//
//	docBinV1 | uvarint version | runID
//	| uvarint ninv  | (invocationID, taskID)*
//	| uvarint narts | (artifactID, uvarint gen+1)*   gen 0 = external input
//	| uvarint nused | (uvarint invocation, uvarint artifact)*
//
// Strings are uvarint-length-prefixed (binwire); used edges reference
// invocations and artifacts by their dense index, task references stay
// ID strings (indices are not stable across workflow versions, IDs are).
// An invocation the run stores no ID for is named after its task.
func (r *Run) appendDocBinary(dst []byte, wf *workflow.Workflow, used [][2]int32) []byte {
	dst = append(dst, docBinV1)
	dst = binwire.AppendUvarint(dst, r.version)
	dst = binwire.AppendString(dst, r.id)
	dst = binwire.AppendUvarint(dst, uint64(len(r.procTask)))
	named := r.namedInvocations()
	for i, ti := range r.procTask {
		task := wf.Task(int(ti)).ID
		id := task
		if named {
			id = r.invocationID(int32(i))
		}
		dst = binwire.AppendString(dst, id)
		dst = binwire.AppendString(dst, task)
	}
	dst = binwire.AppendUvarint(dst, uint64(len(r.artGen)))
	for i, g := range r.artGen {
		dst = binwire.AppendString(dst, r.artifactID(int32(i)))
		dst = binwire.AppendUvarint(dst, uint64(g+1))
	}
	dst = binwire.AppendUvarint(dst, uint64(len(used)))
	for _, e := range used {
		dst = binwire.AppendUvarint(dst, uint64(e[0]))
		dst = binwire.AppendUvarint(dst, uint64(e[1]))
	}
	return dst
}

// decodeRunDocBinaryInto materializes a binary canonical document back
// into the wire shape, which then flows through the ordinary validation
// path — a recovered run is re-validated exactly like a fresh one. Each
// string is copied once onto w's arena; references by index reuse the
// span of the string they point at.
func decodeRunDocBinaryInto(w *wireRun, doc []byte) error {
	// The document's strings fit in the document.
	w.arena = slices.Grow(w.arena, len(doc))
	r := binwire.NewReader(doc[1:])
	w.Version = r.Uvarint()
	w.Run = w.put(r.Bytes())
	if n := r.Len(2); n > 0 {
		w.Invocations = slices.Grow(w.Invocations, n)
		for i := 0; i < n; i++ {
			id := w.put(r.Bytes())
			w.Invocations = append(w.Invocations, wireInvocation{ID: id, Task: w.put(r.Bytes())})
		}
	}
	if n := r.Len(2); n > 0 {
		w.Artifacts = slices.Grow(w.Artifacts, n)
		for i := 0; i < n; i++ {
			a := wireArtifact{ID: w.put(r.Bytes())}
			gen := r.Uvarint()
			if r.Err() == nil && gen > 0 {
				gi := int(gen - 1)
				if gi >= len(w.Invocations) {
					return fmt.Errorf("binary run document: artifact %q generated_by index %d out of range", w.bytes(a.ID), gi)
				}
				a.GeneratedBy = w.Invocations[gi].ID
			}
			w.Artifacts = append(w.Artifacts, a)
		}
	}
	if n := r.Len(2); n > 0 {
		w.Used = slices.Grow(w.Used, n)
		for i := 0; i < n; i++ {
			pi, ai := r.Uvarint(), r.Uvarint()
			if r.Err() != nil {
				break
			}
			if pi >= uint64(len(w.Invocations)) || ai >= uint64(len(w.Artifacts)) {
				return fmt.Errorf("binary run document: used edge %d index out of range", i)
			}
			w.Used = append(w.Used, wireUsed{Process: w.Invocations[pi].ID, Artifact: w.Artifacts[ai].ID})
		}
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("binary run document: %w", err)
	}
	return nil
}
