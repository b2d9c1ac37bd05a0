package runs

import (
	"strconv"

	"wolves/internal/jsonwire"
)

// This file is the allocation-free wire encoder for lineage answers.
// AppendJSON produces bytes identical to encoding/json.Marshal on the
// same Answer — field order, omitempty behaviour, HTML-escaping and
// all (TestAppendJSONMatchesMarshal pins that, including the nasty
// string cases) — while appending into a caller-owned buffer so the
// serve path never round-trips through reflection or an intermediate
// []byte per response.

// appendStringArray appends xs as a JSON array of strings; a nil slice
// encodes as null, matching encoding/json.
func appendStringArray(dst []byte, xs []string) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonwire.AppendString(dst, x)
	}
	return append(dst, ']')
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendJSON appends the answer's JSON encoding to dst and returns the
// extended buffer. The output is byte-identical to json.Marshal(a).
func (a *Answer) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"workflow":`...)
	dst = jsonwire.AppendString(dst, a.Workflow)
	dst = append(dst, `,"run":`...)
	dst = jsonwire.AppendString(dst, a.Run)
	dst = append(dst, `,"artifact":`...)
	dst = jsonwire.AppendString(dst, a.Artifact)
	if a.Producer != "" {
		dst = append(dst, `,"producer":`...)
		dst = jsonwire.AppendString(dst, a.Producer)
	}
	dst = append(dst, `,"level":`...)
	dst = jsonwire.AppendString(dst, a.Level)
	dst = append(dst, `,"direction":`...)
	dst = jsonwire.AppendString(dst, a.Direction)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, a.Version, 10)
	dst = append(dst, `,"tasks":`...)
	dst = appendStringArray(dst, a.Tasks)
	dst = append(dst, `,"artifacts":`...)
	dst = appendStringArray(dst, a.Artifacts)
	if a.View != "" {
		dst = append(dst, `,"view":`...)
		dst = jsonwire.AppendString(dst, a.View)
	}
	if a.ViewSound != nil {
		dst = append(dst, `,"view_sound":`...)
		dst = appendBool(dst, *a.ViewSound)
	}
	if len(a.Composites) > 0 {
		dst = append(dst, `,"composites":`...)
		dst = appendStringArray(dst, a.Composites)
	}
	if a.Sound != nil {
		dst = append(dst, `,"sound":`...)
		dst = appendBool(dst, *a.Sound)
	}
	if len(a.Spurious) > 0 {
		dst = append(dst, `,"spurious_composites":`...)
		dst = appendStringArray(dst, a.Spurious)
	}
	if len(a.Missing) > 0 {
		dst = append(dst, `,"missing_composites":`...)
		dst = appendStringArray(dst, a.Missing)
	}
	if len(a.SpuriousTasks) > 0 {
		dst = append(dst, `,"spurious_tasks":`...)
		dst = appendStringArray(dst, a.SpuriousTasks)
	}
	if len(a.Witness) > 0 {
		dst = append(dst, `,"witness":[`...)
		for i := range a.Witness {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &a.Witness[i]
			dst = append(dst, `{"relation":`...)
			dst = jsonwire.AppendString(dst, e.Relation)
			dst = append(dst, `,"process":`...)
			dst = jsonwire.AppendString(dst, e.Process)
			dst = append(dst, `,"artifact":`...)
			dst = jsonwire.AppendString(dst, e.Artifact)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}
