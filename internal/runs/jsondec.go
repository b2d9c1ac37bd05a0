package runs

import "wolves/internal/jsonwire"

// The JSON run-document and NDJSON-record decoders: the run wire shapes
// (ingest.go) decoded field by field with the internal/jsonwire
// primitives, which pin acceptance, rejection and values to
// json.Unmarshal into the string-field shapes jsonRun and jsonLine
// (ingest_ref_test.go).

// wireLineBufs are the pointee buffers behind a decoded wireLine's
// pointer fields, so the per-line NDJSON decode allocates nothing. The
// pointers aliased into the wireLine are valid until the next decode
// with the same bufs — accumulate() copies them out line by line (the
// spans they hold index the run's arena, which outlives the line).
type wireLineBufs struct {
	inv  wireInvocation
	art  wireArtifact
	used wireUsed
}

// decodeRunDocJSON parses one JSON run document into w, appending its
// string values to w's arena. Matches json.Unmarshal of doc into the
// string-field shape exactly.
func decodeRunDocJSON(d *jsonwire.Decoder, w *wireRun, doc []byte) error {
	return d.Document(doc, &w.arena, func() error { return runObject(d, w) })
}

// decodeWireLineJSON parses one NDJSON record into l, appending its
// string values to *arena. Pointer fields point into bufs when non-nil
// (the pooled path), or freshly allocated structs otherwise. Matches
// json.Unmarshal of line into the string-field shape exactly.
func decodeWireLineJSON(d *jsonwire.Decoder, l *wireLine, line []byte, bufs *wireLineBufs, arena *[]byte) error {
	return d.Document(line, arena, func() error { return lineObject(d, l, bufs) })
}

// SplitBatch frames a JSON array of run documents — the body of a batch
// ingest — into its elements, as sub-slices of body (see
// jsonwire.SplitBatch).
func SplitBatch(body []byte) ([][]byte, error) { return jsonwire.SplitBatch(body) }

// runObject decodes the wireRun object body; the cursor is at '{'.
func runObject(d *jsonwire.Decoder, w *wireRun) error {
	return d.Object(func(key []byte) error {
		switch string(key) { // compiler-optimized, no allocation
		case "run":
			return d.StringField(&w.Run)
		case "version":
			return d.UintField(&w.Version)
		case "invocations":
			return jsonwire.ArrayField(d, &w.Invocations, func(el *wireInvocation) error { return invocationObject(d, el) }, "invocations", "an invocation")
		case "artifacts":
			return jsonwire.ArrayField(d, &w.Artifacts, func(el *wireArtifact) error { return artifactObject(d, el) }, "artifacts", "an artifact")
		case "used":
			return jsonwire.ArrayField(d, &w.Used, func(el *wireUsed) error { return usedObject(d, el) }, "used", "a used")
		}
		// No exact match: case-folded match in struct field order, like
		// encoding/json's fallback; then skip as an unknown field.
		switch {
		case jsonwire.FoldedEq(key, "run"):
			return d.StringField(&w.Run)
		case jsonwire.FoldedEq(key, "version"):
			return d.UintField(&w.Version)
		case jsonwire.FoldedEq(key, "invocations"):
			return jsonwire.ArrayField(d, &w.Invocations, func(el *wireInvocation) error { return invocationObject(d, el) }, "invocations", "an invocation")
		case jsonwire.FoldedEq(key, "artifacts"):
			return jsonwire.ArrayField(d, &w.Artifacts, func(el *wireArtifact) error { return artifactObject(d, el) }, "artifacts", "an artifact")
		case jsonwire.FoldedEq(key, "used"):
			return jsonwire.ArrayField(d, &w.Used, func(el *wireUsed) error { return usedObject(d, el) }, "used", "a used")
		}
		return d.SkipValue()
	})
}

// lineObject decodes the wireLine object body; the cursor is at '{'.
func lineObject(d *jsonwire.Decoder, l *wireLine, bufs *wireLineBufs) error {
	var invBuf *wireInvocation
	var artBuf *wireArtifact
	var usedBuf *wireUsed
	if bufs != nil {
		invBuf, artBuf, usedBuf = &bufs.inv, &bufs.art, &bufs.used
	}
	inv := func() error {
		return jsonwire.PointerField(d, &l.Invocation, invBuf, func(el *wireInvocation) error { return invocationObject(d, el) }, "an invocation")
	}
	art := func() error {
		return jsonwire.PointerField(d, &l.Artifact, artBuf, func(el *wireArtifact) error { return artifactObject(d, el) }, "an artifact")
	}
	used := func() error {
		return jsonwire.PointerField(d, &l.Used, usedBuf, func(el *wireUsed) error { return usedObject(d, el) }, "a used")
	}
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "run":
			return d.StringField(&l.Run)
		case "invocation":
			return inv()
		case "artifact":
			return art()
		case "used":
			return used()
		}
		switch {
		case jsonwire.FoldedEq(key, "run"):
			return d.StringField(&l.Run)
		case jsonwire.FoldedEq(key, "invocation"):
			return inv()
		case jsonwire.FoldedEq(key, "artifact"):
			return art()
		case jsonwire.FoldedEq(key, "used"):
			return used()
		}
		return d.SkipValue()
	})
}

// invocationObject decodes one invocation object into el; the cursor
// is at '{'. el is not zeroed: reused slice elements and merged
// pointees keep fields the JSON omits, matching encoding/json.
func invocationObject(d *jsonwire.Decoder, el *wireInvocation) error {
	return pairObject(d, &el.ID, "id", &el.Task, "task")
}

// artifactObject decodes one artifact object into el.
func artifactObject(d *jsonwire.Decoder, el *wireArtifact) error {
	return pairObject(d, &el.ID, "id", &el.GeneratedBy, "generated_by")
}

// usedObject decodes one used-edge object into el.
func usedObject(d *jsonwire.Decoder, el *wireUsed) error {
	return pairObject(d, &el.Process, "process", &el.Artifact, "artifact")
}

// pairObject decodes an object of two string fields: key ka into a, key
// kb into b. Exact key matches win over case-folded ones, as in
// encoding/json; other keys are skipped.
func pairObject(d *jsonwire.Decoder, a *span, ka string, b *span, kb string) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case ka:
			return d.StringField(a)
		case kb:
			return d.StringField(b)
		}
		switch {
		case jsonwire.FoldedEq(key, ka):
			return d.StringField(a)
		case jsonwire.FoldedEq(key, kb):
			return d.StringField(b)
		}
		return d.SkipValue()
	})
}
