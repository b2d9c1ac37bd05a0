// The designated compat codec: every encoding/json touch of WAL record
// bodies lives in this file (snapshot documents, which are JSON by
// design, live in snapshot.go; the workflow and view documents the cold
// kinds embed are rendered by their own MarshalJSON, and the register
// and attach bodies append them as they are). The jsonseam
// analyzer fences the rest of the package, which keeps the binary write
// path honest — a hot-path json.Marshal cannot creep back in unnoticed.
//
// The JSON shapes are frozen: they are what every WAL written before
// PR 9 contains, and the sniffing decoders in binary.go fall back to
// them whenever a record body does not open with the binary version
// tag (JSON object bodies always open with '{', so the two encodings
// are disjoint on the first byte). The cold record kinds — register,
// attach, detach, delete — still write JSON: they carry workflow/view
// documents that are JSON anyway, or are too rare to matter. The hot
// kinds' JSON shapes (mutateBody, runBody) have decoders only, which
// JSON-era data directories need.
package storage

import (
	"encoding/json"
	"strconv"

	"wolves/internal/jsonwire"
)

// taskBody is one task addition inside a mutateBody, mirroring the
// registry's workflow.Task (an empty Name defaults to the ID on replay,
// exactly as it did on the original apply).
type taskBody struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// registerBody records a workflow registration (or same-ID replacement).
type registerBody struct {
	ID       string          `json:"id"`
	Version  uint64          `json:"version"`
	Workflow json.RawMessage `json:"workflow"`
}

// mutateBody records a committed mutation batch: the applied tasks and
// edges plus the post-batch version, checked against the replayed
// Mutate's result to catch divergence.
type mutateBody struct {
	ID      string      `json:"id"`
	Version uint64      `json:"version"`
	Tasks   []taskBody  `json:"tasks,omitempty"`
	Edges   [][2]string `json:"edges,omitempty"`
}

// attachBody records a view attach/replace.
type attachBody struct {
	ID      string          `json:"id"`
	VID     string          `json:"vid"`
	Version uint64          `json:"version"`
	View    json.RawMessage `json:"view"`
}

// detachBody records a view detach.
type detachBody struct {
	ID      string `json:"id"`
	VID     string `json:"vid"`
	Version uint64 `json:"version"`
}

// deleteBody records a workflow deletion (explicit or by eviction).
type deleteBody struct {
	ID string `json:"id"`
}

// runBody records one ingested (or replaced) execution trace: the
// canonical run document as produced by the run store. Replay re-ingests
// the document; ingestion is idempotent by run ID, so a record also
// covered by a snapshot replays harmlessly. In the binary body form the
// Doc bytes may themselves be a binary run document — the run store's
// decoder sniffs, exactly like this package's.
type runBody struct {
	ID  string          `json:"id"`  // workflow ID
	Run string          `json:"run"` // run ID
	Doc json.RawMessage `json:"doc"`
}

// --- encoders (cold kinds) ---------------------------------------------------

// encodeRegisterBody and encodeAttachBody write the bytes json.Marshal
// makes of a registerBody and an attachBody, appending the document
// as is: Workflow.MarshalJSON and View.MarshalJSON already write it
// compact and HTML-escaped, which is all json.Marshal would do to an
// embedded json.RawMessage besides scanning it again
// (TestEncodeBodiesMatchMarshal).
func encodeRegisterBody(id string, version uint64, wfRaw []byte) []byte {
	b := make([]byte, 0, len(wfRaw)+len(id)+48)
	b = jsonwire.AppendString(append(b, `{"id":`...), id)
	b = strconv.AppendUint(append(b, `,"version":`...), version, 10)
	b = append(append(b, `,"workflow":`...), wfRaw...)
	return append(b, '}')
}

func encodeAttachBody(id, vid string, version uint64, viewRaw []byte) []byte {
	b := make([]byte, 0, len(viewRaw)+len(id)+len(vid)+56)
	b = jsonwire.AppendString(append(b, `{"id":`...), id)
	b = jsonwire.AppendString(append(b, `,"vid":`...), vid)
	b = strconv.AppendUint(append(b, `,"version":`...), version, 10)
	b = append(append(b, `,"view":`...), viewRaw...)
	return append(b, '}')
}

func encodeDetachBody(id, vid string, version uint64) ([]byte, error) {
	return json.Marshal(detachBody{ID: id, VID: vid, Version: version})
}

func encodeDeleteBody(id string) ([]byte, error) {
	return json.Marshal(deleteBody{ID: id})
}

// --- decoders (always-JSON kinds + the compat halves of the sniffers) ---------

func decodeRegisterBody(b []byte) (registerBody, error) {
	var body registerBody
	err := json.Unmarshal(b, &body)
	return body, err
}

func decodeAttachBody(b []byte) (attachBody, error) {
	var body attachBody
	err := json.Unmarshal(b, &body)
	return body, err
}

func decodeDetachBody(b []byte) (detachBody, error) {
	var body detachBody
	err := json.Unmarshal(b, &body)
	return body, err
}

func decodeDeleteBody(b []byte) (deleteBody, error) {
	var body deleteBody
	err := json.Unmarshal(b, &body)
	return body, err
}

func decodeMutateJSON(b []byte) (mutateBody, error) {
	var body mutateBody
	err := json.Unmarshal(b, &body)
	return body, err
}

func decodeRunJSON(b []byte) (runBody, error) {
	var body runBody
	err := json.Unmarshal(b, &body)
	return body, err
}
