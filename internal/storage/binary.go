// Binary WAL record bodies (PR 9). The hot record kinds — mutation
// batches and ingested runs, the two that dominate both the write path
// and replay — are encoded as compact length-prefixed binary instead of
// JSON: no reflection, no field names, no quoting, and on the run path
// no re-encoding of the normalized document the run store already built.
//
// Every binary body opens with the version tag bodyBinV1. JSON object
// bodies always open with '{' (0x7B), so the decoders below sniff the
// first byte and fall back to the compat JSON decoders in compat.go for
// every record written before PR 9 — recovery of old data dirs is
// unchanged, byte for byte. Bodies sit under the WAL record CRC, so the
// decoders here defend against truncation (a torn record the framing
// admitted) but need not defend against bit rot.
package storage

import (
	"cmp"
	"fmt"

	"wolves/internal/binwire"
	"wolves/internal/engine"
	"wolves/internal/workflow"
)

// bodyBinV1 tags the first binary body format. A future v2 gets the
// next byte; decoders reject tags they do not know rather than guess.
const bodyBinV1 = 0x01

// appendMutateBinary encodes a committed mutation batch:
//
//	bodyBinV1 | id | uvarint version
//	| uvarint ntasks | (id, name, kind)*
//	| uvarint nedges | (from, to)*
//
// where every string is uvarint-length-prefixed (binwire).
func appendMutateBinary(dst []byte, id string, version uint64, batch *engine.AppliedBatch) []byte {
	dst = append(dst, bodyBinV1)
	dst = binwire.AppendString(dst, id)
	dst = binwire.AppendUvarint(dst, version)
	dst = binwire.AppendUvarint(dst, uint64(len(batch.Tasks)))
	for _, t := range batch.Tasks {
		dst = binwire.AppendString(dst, t.ID)
		dst = binwire.AppendString(dst, t.Name)
		dst = binwire.AppendString(dst, t.Kind)
	}
	dst = binwire.AppendUvarint(dst, uint64(len(batch.Edges)))
	for _, e := range batch.Edges {
		dst = binwire.AppendString(dst, e[0])
		dst = binwire.AppendString(dst, e[1])
	}
	return dst
}

// appendRunBinary encodes an ingested-run record:
//
//	bodyBinV1 | workflowID | runID | uvarint len(doc) | doc
//
// The doc bytes are the run store's canonical document, embedded
// verbatim — JSON or the run store's own binary form, this layer does
// not care.
func appendRunBinary(dst []byte, workflowID, runID string, doc []byte) []byte {
	dst = append(dst, bodyBinV1)
	dst = binwire.AppendString(dst, workflowID)
	dst = binwire.AppendString(dst, runID)
	return binwire.AppendBytes(dst, doc)
}

// decodeMutateBody decodes a mutate record body of either encoding.
func decodeMutateBody(b []byte) (mutateBody, error) {
	if len(b) == 0 {
		return mutateBody{}, binwire.ErrCorrupt
	}
	if b[0] != bodyBinV1 {
		return decodeMutateJSON(b)
	}
	r := binwire.NewReader(b[1:])
	var m mutateBody
	m.ID = r.String()
	m.Version = r.Uvarint()
	if n := r.Len(3); n > 0 {
		m.Tasks = make([]taskBody, 0, n)
		for i := 0; i < n; i++ {
			m.Tasks = append(m.Tasks, taskBody{ID: r.String(), Name: r.String(), Kind: r.String()})
		}
	}
	if n := r.Len(2); n > 0 {
		m.Edges = make([][2]string, 0, n)
		for i := 0; i < n; i++ {
			m.Edges = append(m.Edges, [2]string{r.String(), r.String()})
		}
	}
	if err := r.Close(); err != nil {
		return mutateBody{}, fmt.Errorf("binary mutate body: %w", err)
	}
	return m, nil
}

// decodeRunBody decodes a run record body of either encoding. The
// binary path returns Doc aliasing b (record payloads are allocated
// per record by the scanner, so the alias is safe to retain).
func decodeRunBody(b []byte) (runBody, error) {
	if len(b) == 0 {
		return runBody{}, binwire.ErrCorrupt
	}
	if b[0] != bodyBinV1 {
		return decodeRunJSON(b)
	}
	r := binwire.NewReader(b[1:])
	var body runBody
	body.ID = r.String()
	body.Run = r.String()
	body.Doc = r.Bytes()
	if err := r.Close(); err != nil {
		return runBody{}, fmt.Errorf("binary run body: %w", err)
	}
	return body, nil
}

// appendRunBatchBinary encodes runs ingested together as one record
// body: the workflow ID, the run count, then each run ID and document.
func appendRunBatchBinary(dst []byte, workflowID string, runIDs []string, docs [][]byte) []byte {
	dst = append(dst, bodyBinV1)
	dst = binwire.AppendString(dst, workflowID)
	dst = binwire.AppendUvarint(dst, uint64(len(runIDs)))
	for i, id := range runIDs {
		dst = binwire.AppendString(dst, id)
		dst = binwire.AppendBytes(dst, docs[i])
	}
	return dst
}

// decodeRunBatchBody decodes a batch record body into one runBody per
// run; the documents alias b, like decodeRunBody's. A batch holds at
// least one run.
func decodeRunBatchBody(b []byte) ([]runBody, error) {
	if len(b) == 0 || b[0] != bodyBinV1 {
		return nil, binwire.ErrCorrupt
	}
	r := binwire.NewReader(b[1:])
	id := r.String()
	runs := make([]runBody, r.Len(2))
	for i := range runs {
		runs[i] = runBody{ID: id, Run: r.String(), Doc: r.Bytes()}
	}
	if err := r.Close(); err != nil || len(runs) == 0 {
		return nil, fmt.Errorf("binary run batch body: %w", cmp.Or(err, binwire.ErrCorrupt))
	}
	return runs, nil
}

// recordWorkflowID extracts just the workflow ID of a register or
// delete record body — the only two kinds the capacity pre-pass needs,
// both JSON-encoded.
func recordWorkflowID(b []byte) (string, error) {
	body, err := decodeDeleteBody(b) // registerBody's ID field has the same shape
	return body.ID, err
}

// mutation converts the decoded body back into the engine's mutation
// shape for replay.
func (m *mutateBody) mutation() engine.Mutation {
	mut := engine.Mutation{Edges: m.Edges}
	for _, t := range m.Tasks {
		mut.Tasks = append(mut.Tasks, workflow.Task{ID: t.ID, Name: t.Name, Kind: t.Kind})
	}
	return mut
}
