package runs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"wolves/internal/jsonwire"
	"wolves/internal/jsonwire/jsonwiretest"
)

// strings turns the decoded spans back into the string-field shape,
// keeping nil and empty slices apart as encoding/json does.
func (w *wireRun) strings() jsonRun {
	out := jsonRun{Run: w.str(w.Run), Version: w.Version}
	if w.Invocations != nil {
		out.Invocations = make([]jsonInvocation, len(w.Invocations))
		for i, inv := range w.Invocations {
			out.Invocations[i] = jsonInvocation{ID: w.str(inv.ID), Task: w.str(inv.Task)}
		}
	}
	if w.Artifacts != nil {
		out.Artifacts = make([]jsonArtifact, len(w.Artifacts))
		for i, a := range w.Artifacts {
			out.Artifacts[i] = jsonArtifact{ID: w.str(a.ID), GeneratedBy: w.str(a.GeneratedBy)}
		}
	}
	if w.Used != nil {
		out.Used = make([]jsonUsed, len(w.Used))
		for i, u := range w.Used {
			out.Used[i] = jsonUsed{Process: w.str(u.Process), Artifact: w.str(u.Artifact)}
		}
	}
	return out
}

// lineStrings turns a decoded NDJSON record back into the string shape;
// arena is the one it was decoded onto.
func lineStrings(l *wireLine, arena []byte) jsonLine {
	w := &wireRun{arena: arena}
	out := jsonLine{Run: w.str(l.Run)}
	if l.Invocation != nil {
		out.Invocation = &jsonInvocation{ID: w.str(l.Invocation.ID), Task: w.str(l.Invocation.Task)}
	}
	if l.Artifact != nil {
		out.Artifact = &jsonArtifact{ID: w.str(l.Artifact.ID), GeneratedBy: w.str(l.Artifact.GeneratedBy)}
	}
	if l.Used != nil {
		out.Used = &jsonUsed{Process: w.str(l.Used.Process), Artifact: w.str(l.Used.Artifact)}
	}
	return out
}

// decodeEquiv decodes data with both decoders (encoding/json and the
// hand-rolled one) into both wire shapes and fails unless acceptance
// and the decoded values — spans turned back into strings — agree
// exactly. An array is also framed as a batch, by SplitBatch and by
// encoding/json into []json.RawMessage, and the elements must agree.
func decodeEquiv(t *testing.T, data []byte) {
	t.Helper()

	var want jsonRun
	werr := json.Unmarshal(data, &want)
	var d jsonwire.Decoder
	var got wireRun
	gerr := decodeRunDocJSON(&d, &got, data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("wireRun acceptance diverges on %q:\n  encoding/json: %v\n  jsonwire:      %v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got.strings()) {
		t.Fatalf("wireRun value diverges on %q:\n  encoding/json: %+v\n  jsonwire:      %+v", data, want, got.strings())
	}

	var wantL jsonLine
	wlerr := json.Unmarshal(data, &wantL)
	var gotL wireLine
	var arena []byte
	glerr := decodeWireLineJSON(&d, &gotL, data, nil, &arena)
	if (wlerr == nil) != (glerr == nil) {
		t.Fatalf("wireLine acceptance diverges on %q:\n  encoding/json: %v\n  jsonwire:      %v", data, wlerr, glerr)
	}
	if wlerr == nil && !reflect.DeepEqual(wantL, lineStrings(&gotL, arena)) {
		t.Fatalf("wireLine value diverges on %q:\n  encoding/json: %+v\n  jsonwire:      %+v", data, wantL, lineStrings(&gotL, arena))
	}

	if body := bytes.TrimLeft(data, " \t\r\n"); len(body) > 0 && body[0] == '[' {
		var wantB []json.RawMessage
		wberr := json.Unmarshal(body, &wantB)
		gotB, gberr := SplitBatch(body)
		if (wberr == nil) != (gberr == nil) {
			t.Fatalf("batch acceptance diverges on %q:\n  encoding/json: %v\n  SplitBatch:    %v", body, wberr, gberr)
		}
		if wberr == nil && (len(wantB) != len(gotB) || !slices.EqualFunc(wantB, gotB,
			func(a json.RawMessage, b []byte) bool { return bytes.Equal(a, b) })) {
			t.Fatalf("batch elements diverge on %q:\n  encoding/json: %q\n  SplitBatch:    %q", body, wantB, gotB)
		}
	}
}

// TestJSONDecodeEquivalence runs the shared jsonwire corpus through the
// run-document and NDJSON-record decoders.
func TestJSONDecodeEquivalence(t *testing.T) {
	for _, s := range jsonwiretest.Seeds {
		decodeEquiv(t, []byte(s))
	}
	// The scanner's nesting cap: 9999 open containers inside the object
	// pass, 10001 fail — on both decoders.
	decodeEquiv(t, jsonwiretest.Deep(jsonwire.MaxDepth-1))
	decodeEquiv(t, jsonwiretest.Deep(jsonwire.MaxDepth+1))
}

// TestJSONDecodePooledReuse pins the scratch-reuse contract: a document
// decoded into a pooled wireRun whose slices and arena carry stale
// capacity from a previous, larger decode must come out exactly as a
// fresh decode — nothing stale may leak through omitted fields.
func TestJSONDecodePooledReuse(t *testing.T) {
	sc := &ingestScratch{}
	big := []byte(`{"run":"big","invocations":[{"id":"i1","task":"t1"},{"id":"i2","task":"t2"}],` +
		`"artifacts":[{"id":"a1","generated_by":"i1"},{"id":"a2","generated_by":"i2"}],` +
		`"used":[{"process":"i1","artifact":"a1"},{"process":"i2","artifact":"a2"}]}`)
	if err := sc.decodeDoc(sc.wire(), big); err != nil {
		t.Fatalf("decode big: %v", err)
	}
	small := []byte(`{"run":"small","artifacts":[{"id":"b1"}]}`)
	w := sc.wire()
	if err := sc.decodeDoc(w, small); err != nil {
		t.Fatalf("decode small: %v", err)
	}
	var fresh jsonRun
	if err := json.Unmarshal(small, &fresh); err != nil {
		t.Fatalf("fresh decode: %v", err)
	}
	got := w.strings()
	if got.Run != fresh.Run || got.Version != fresh.Version ||
		len(got.Invocations) != len(fresh.Invocations) ||
		len(got.Used) != len(fresh.Used) ||
		!reflect.DeepEqual(got.Artifacts, fresh.Artifacts) {
		t.Fatalf("pooled decode diverges from fresh decode:\n  pooled: %+v\n  fresh:  %+v", got, fresh)
	}
	if w.Artifacts[0].GeneratedBy.Len() != 0 {
		t.Fatalf("stale generated_by leaked through pooled reuse: %+v", got.Artifacts[0])
	}
}

// TestJSONDecodeLineBufs pins the pooled NDJSON line decode: pointer
// fields alias the scratch buffers, values match encoding/json, and a
// second decode does not disturb values copied out of the first — its
// spans index the shared arena, which only grows.
func TestJSONDecodeLineBufs(t *testing.T) {
	var d jsonwire.Decoder
	var bufs wireLineBufs
	var l wireLine
	var arena []byte
	if err := decodeWireLineJSON(&d, &l, []byte(`{"invocation":{"id":"i1","task":"t1"}}`), &bufs, &arena); err != nil {
		t.Fatalf("decode line: %v", err)
	}
	if l.Invocation != &bufs.inv {
		t.Fatalf("pooled line decode did not alias the scratch buffer")
	}
	first := *l.Invocation
	l = wireLine{}
	if err := decodeWireLineJSON(&d, &l, []byte(`{"invocation":{"id":"i2","task":"t2"}}`), &bufs, &arena); err != nil {
		t.Fatalf("decode second line: %v", err)
	}
	w := &wireRun{arena: arena}
	if w.str(first.ID) != "i1" || w.str(first.Task) != "t1" {
		t.Fatalf("copied-out record disturbed by the next decode: %q %q", w.str(first.ID), w.str(first.Task))
	}
	if w.str(l.Invocation.ID) != "i2" || w.str(l.Invocation.Task) != "t2" {
		t.Fatalf("second decode wrong: %q %q", w.str(l.Invocation.ID), w.str(l.Invocation.Task))
	}
}

// FuzzJSONDecodeEquivalence differentially fuzzes the run-document and
// NDJSON-record decoders against encoding/json over both wire shapes
// and the batch framing: any input where acceptance or the decoded
// values diverge is a bug in jsondec.go or internal/jsonwire.
func FuzzJSONDecodeEquivalence(f *testing.F) {
	for _, s := range jsonwiretest.Seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeEquiv(t, data)
	})
}
