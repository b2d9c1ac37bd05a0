package jsonwire_test

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wolves/internal/jsonwire"
	"wolves/internal/jsonwire/jsonwiretest"
)

// The test shapes exercise every primitive on the run-document field
// names the shared corpus is written against: strings, a uint64, arrays
// of objects, a pointer to an object, and unknown fields (skipped in
// Document mode, rejected in Value mode).
type (
	pair struct {
		ID  string `json:"id"`
		Gen string `json:"generated_by"`
	}
	doc struct {
		Run       string `json:"run"`
		Version   uint64 `json:"version"`
		Artifacts []pair `json:"artifacts"`
		Used      *pair  `json:"used"`
	}
	// strictDoc is the Value-mode shape: a string, a slice of objects, a
	// [2]string and a []string.
	strictDoc struct {
		Run       string    `json:"run"`
		Artifacts []pair    `json:"artifacts"`
		Edge      [2]string `json:"edge"`
		Tags      []string  `json:"tags"`
	}
)

type (
	wirePair struct{ ID, Gen jsonwire.Span }
	wireDoc  struct {
		Run       jsonwire.Span
		Version   uint64
		Artifacts []wirePair
		Used      *wirePair
		arena     []byte
	}
	wireStrict struct {
		Run       jsonwire.Span
		Artifacts []wirePair
		Edge      [2]jsonwire.Span
		Tags      []jsonwire.Span
		arena     []byte
	}
)

func str(arena []byte, s jsonwire.Span) string { return string(arena[s.Off:s.End]) }

func pairObject(d *jsonwire.Decoder, p *wirePair) error {
	return d.Object(func(key []byte) error {
		switch {
		case string(key) == "id":
			return d.StringField(&p.ID)
		case string(key) == "generated_by":
			return d.StringField(&p.Gen)
		case jsonwire.FoldedEq(key, "id"):
			return d.StringField(&p.ID)
		case jsonwire.FoldedEq(key, "generated_by"):
			return d.StringField(&p.Gen)
		}
		return d.SkipValue()
	})
}

func decodeDoc(data []byte) (doc, error) {
	var d jsonwire.Decoder
	var w wireDoc
	err := d.Document(data, &w.arena, func() error {
		return d.Object(func(key []byte) error {
			for _, k := range []string{"run", "version", "artifacts", "used"} {
				if string(key) != k {
					continue
				}
				return docField(&d, &w, k)
			}
			for _, k := range []string{"run", "version", "artifacts", "used"} {
				if jsonwire.FoldedEq(key, k) {
					return docField(&d, &w, k)
				}
			}
			return d.SkipValue()
		})
	})
	out := doc{Run: str(w.arena, w.Run), Version: w.Version}
	if w.Artifacts != nil {
		out.Artifacts = make([]pair, len(w.Artifacts))
		for i, a := range w.Artifacts {
			out.Artifacts[i] = pair{str(w.arena, a.ID), str(w.arena, a.Gen)}
		}
	}
	if w.Used != nil {
		out.Used = &pair{str(w.arena, w.Used.ID), str(w.arena, w.Used.Gen)}
	}
	return out, err
}

func docField(d *jsonwire.Decoder, w *wireDoc, k string) error {
	obj := func(p *wirePair) error { return pairObject(d, p) }
	switch k {
	case "run":
		return d.StringField(&w.Run)
	case "version":
		return d.UintField(&w.Version)
	case "artifacts":
		return jsonwire.ArrayField(d, &w.Artifacts, obj, "artifacts", "an artifact")
	}
	return jsonwire.PointerField(d, &w.Used, nil, obj, "a used")
}

var (
	strictFields = []string{"run", "artifacts", "edge", "tags"}
	pairFields   = []string{"id", "generated_by"}
	topTarget    = jsonwire.Field{Type: "jsonwire_test.strictDoc"}
	runTarget    = jsonwire.Field{Struct: "strictDoc", Path: "run", Type: "string"}
	artsTarget   = jsonwire.Field{Struct: "strictDoc", Path: "artifacts", Type: "[]jsonwire_test.pair"}
	artTarget    = jsonwire.Field{Struct: "strictDoc", Path: "artifacts", Type: "jsonwire_test.pair"}
	pairTargets  = [2]jsonwire.Field{
		{Struct: "pair", Path: "artifacts.id", Type: "string"},
		{Struct: "pair", Path: "artifacts.generated_by", Type: "string"},
	}
	edgeTarget = jsonwire.Field{Struct: "strictDoc", Path: "edge", Type: "[2]string"}
	endTarget  = jsonwire.Field{Struct: "strictDoc", Path: "edge", Type: "string"}
	tagsTarget = jsonwire.Field{Struct: "strictDoc", Path: "tags", Type: "[]string"}
	tagTarget  = jsonwire.Field{Struct: "strictDoc", Path: "tags", Type: "string"}
)

// strictScratch is a pooled-style working set for decodeStrict: the
// decoder, the wire value and the slab its tags are carved from, reused
// across documents as the package's pools reuse theirs.
type strictScratch struct {
	d    jsonwire.Decoder
	w    wireStrict
	slab []jsonwire.Span
}

// decodeStrict decodes data in Value mode into a fresh scratch.
func decodeStrict(data []byte) (strictDoc, error) {
	return new(strictScratch).decode(data)
}

// decode decodes data in Value mode into sc.w, with the tags carved
// from sc.slab, and turns the spans back into strictDoc; it then
// resets sc for the next document as a pool does.
func (sc *strictScratch) decode(data []byte) (strictDoc, error) {
	d, w := &sc.d, &sc.w
	err := d.Value(data, &w.arena, func(c byte) error {
		switch c {
		case 'n':
			return d.Literal("null")
		case '{':
		default:
			return topTarget.Mismatch(c)
		}
		return d.Fields(strictFields, func(i int) error {
			switch i {
			case 0:
				return d.String(&w.Run, &runTarget)
			case 1:
				return jsonwire.Slice(d, &w.Artifacts, nil, &artsTarget, func(p *wirePair) error {
					if c, _ := d.Peek(); c != '{' {
						return artTarget.Mismatch(c)
					}
					return d.Fields(pairFields, func(j int) error {
						if j == 0 {
							return d.String(&p.ID, &pairTargets[0])
						}
						return d.String(&p.Gen, &pairTargets[1])
					})
				})
			case 2:
				return d.Pair(&w.Edge, &edgeTarget, &endTarget)
			}
			return jsonwire.Slice(d, &w.Tags, &sc.slab, &tagsTarget, func(s *jsonwire.Span) error {
				return d.String(s, &tagTarget)
			})
		})
	})
	out := strictDoc{Run: str(w.arena, w.Run), Edge: [2]string{str(w.arena, w.Edge[0]), str(w.arena, w.Edge[1])}}
	for _, a := range w.Artifacts {
		out.Artifacts = append(out.Artifacts, pair{str(w.arena, a.ID), str(w.arena, a.Gen)})
	}
	for _, s := range w.Tags {
		out.Tags = append(out.Tags, str(w.arena, s))
	}
	*w = wireStrict{
		Artifacts: jsonwire.Reuse(w.Artifacts),
		Tags:      jsonwire.Reuse(w.Tags),
		arena:     w.arena[:0],
	}
	sc.slab = jsonwire.Reuse(sc.slab)
	d.Release()
	return out, err
}

// decodeEquiv decodes data with jsonwire and encoding/json in both modes
// and fails unless acceptance and the decoded values agree exactly —
// in Value mode also the message of every rejection but syntax errors.
// An array is also framed as a batch, by SplitBatch and by encoding/json
// into []json.RawMessage, and the elements must agree.
func decodeEquiv(t *testing.T, data []byte) {
	t.Helper()
	var want doc
	werr := json.Unmarshal(data, &want)
	got, gerr := decodeDoc(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("Document acceptance diverges on %q:\n  encoding/json: %v\n  jsonwire:      %v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("Document value diverges on %q:\n  encoding/json: %+v\n  jsonwire:      %+v", data, want, got)
	}

	var wantS strictDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	swerr := dec.Decode(&wantS)
	gotS, sgerr := decodeStrict(data)
	if (swerr == nil) != (sgerr == nil) {
		t.Fatalf("Value acceptance diverges on %q:\n  encoding/json: %v\n  jsonwire:      %v", data, swerr, sgerr)
	}
	// Syntax errors (each decoder words its own) and values cut short
	// are the rejections whose messages may differ, but both decoders
	// must report one, which pins the precedence of a syntax error
	// anywhere over a type or unknown-field error.
	syntax := func(err error) bool { return err != io.EOF && !strings.HasPrefix(err.Error(), "json: ") }
	if swerr != nil && (syntax(swerr) != syntax(sgerr) || !syntax(swerr) && swerr.Error() != sgerr.Error()) {
		t.Fatalf("Value rejection diverges on %q:\n  encoding/json: %v\n  jsonwire:      %v", data, swerr, sgerr)
	}
	if swerr == nil && (wantS.Run != gotS.Run || wantS.Edge != gotS.Edge ||
		!slices.Equal(wantS.Artifacts, gotS.Artifacts) || !slices.Equal(wantS.Tags, gotS.Tags)) {
		t.Fatalf("Value diverges on %q:\n  encoding/json: %+v\n  jsonwire:      %+v", data, wantS, gotS)
	}

	if body := bytes.TrimLeft(data, " \t\r\n"); len(body) > 0 && body[0] == '[' {
		var wantB []json.RawMessage
		wberr := json.Unmarshal(body, &wantB)
		gotB, gberr := jsonwire.SplitBatch(body)
		if (wberr == nil) != (gberr == nil) {
			t.Fatalf("batch acceptance diverges on %q:\n  encoding/json: %v\n  SplitBatch:    %v", body, wberr, gberr)
		}
		if wberr == nil && !slices.EqualFunc(wantB, gotB, func(a json.RawMessage, b []byte) bool { return bytes.Equal(a, b) }) {
			t.Fatalf("batch elements diverge on %q:\n  encoding/json: %q\n  SplitBatch:    %q", body, wantB, gotB)
		}
	}
}

// strictSeeds add the Value-mode shape's own corners to the corpus: the
// [2]string's short, long and null forms, slab-carved tags that shrink
// and regrow, and type errors at every field.
var strictSeeds = []string{
	`{"edge":["a","b"]}`, `{"edge":["a"]}`, `{"edge":[]}`, `{"edge":["a","b","c",{"x":1}]}`, `{"edge":null}`,
	`{"edge":["a","b"],"edge":["c"]}`, `{"edge":["a","b"],"edge":[null]}`, `{"edge":{}}`, `{"edge":[1]}`,
	`{"tags":["a","b","c"],"tags":["d"],"tags":["e",null,null,null]}`, `{"tags":["a"],"tags":null,"tags":[null]}`,
	`{"tags":["a","b","c","d","e","f","g","h","i","j"],"tags":[],"tags":[null,null]}`,
	`{"tags":"a"}`, `{"tags":[1]}`, `{"artifacts":[{"id":1}]}`, `{"artifacts":[1]}`, `{"artifacts":{}}`,
	`{"run":5,"zzz":1}`, `{"zzz":1,"run":5}`, `{"run":5,"zzz":tru}`, `[1]`, `"s"`, `12 x`, ``, `   `,
}

func TestJSONDecodeEquivalence(t *testing.T) {
	for _, s := range jsonwiretest.Seeds {
		decodeEquiv(t, []byte(s))
	}
	for _, s := range strictSeeds {
		decodeEquiv(t, []byte(s))
	}
	// The scanner's nesting cap: 9999 open containers inside the object
	// pass, 10001 fail — on both decoders.
	decodeEquiv(t, jsonwiretest.Deep(jsonwire.MaxDepth-1))
	decodeEquiv(t, jsonwiretest.Deep(jsonwire.MaxDepth+1))
}

// TestReuseClearsAcrossDocuments decodes every pair of corpus documents
// through one reused scratch: the second must decode exactly as it does
// fresh, so a document that shortened a slice — leaving elements past
// its length for a repeated key — cannot leak them into the next one.
func TestReuseClearsAcrossDocuments(t *testing.T) {
	docs := append(append([]string{}, strictSeeds...),
		`{"artifacts":[{"id":"a","generated_by":"g"},{"id":"b","generated_by":"h"},{"id":"c","generated_by":"i"}],"artifacts":[{"id":"d"}]}`,
		`{"artifacts":[{"id":"x"}],"artifacts":[null,null,null,null]}`,
		`{"tags":["a","b","c","d","e","f","g","h","i"],"tags":["j"]}`,
		`{"tags":["x"],"tags":[null,null,null,null,null,null,null,null,null,null]}`,
		`{"tags":["a","b","c","d",5]}`, `{"tags":[null,null,null,null]}`, `{"artifacts":[null,null,null]}`,
		`{"artifacts":[{"id":"z"}],"artifacts":[{"id":"a","generated_by":"g"},{"id":"b","generated_by":"h"},1]}`)
	for _, first := range docs {
		for _, second := range docs {
			sc := new(strictScratch)
			sc.decode([]byte(first))
			got, gerr := sc.decode([]byte(second))
			want, werr := decodeStrict([]byte(second))
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q after %q decodes to %+v (%v), fresh %+v (%v)", second, first, got, gerr, want, werr)
			}
		}
	}
}

// TestReleaseDropsReferences pins the pool contract: Release drops the
// input and the arena, and an unquote buffer grown past ScratchKeep.
func TestReleaseDropsReferences(t *testing.T) {
	var d jsonwire.Decoder
	var arena []byte
	key := bytes.Repeat([]byte(`\n`), jsonwire.ScratchKeep)
	data := append(append([]byte(`{"`), key...), `":1}`...)
	if err := d.Document(data, &arena, func() error { return d.Object(func([]byte) error { return d.SkipValue() }) }); err != nil {
		t.Fatal(err)
	}
	if refs, scratch := d.Holds(); !refs || scratch <= jsonwire.ScratchKeep {
		t.Fatalf("before Release: refs %v, scratch %d", refs, scratch)
	}
	d.Release()
	if refs, scratch := d.Holds(); refs || scratch > jsonwire.ScratchKeep {
		t.Fatalf("after Release: refs %v, scratch %d", refs, scratch)
	}
}

// FuzzJSONDecodeEquivalence differentially fuzzes the primitives against
// encoding/json in both document modes and the batch framing: any input
// where acceptance, a typed rejection or the decoded values diverge is a
// bug in jsonwire.
func FuzzJSONDecodeEquivalence(f *testing.F) {
	for _, s := range jsonwiretest.Seeds {
		f.Add([]byte(s))
	}
	for _, s := range strictSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeEquiv(t, data)
	})
}
