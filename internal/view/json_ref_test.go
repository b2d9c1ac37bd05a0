package view_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/jsonwire"
	"wolves/internal/jsonwire/jsonwiretest"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// syntaxOnly reports whether a rejection is one whose message the span
// decoder need not reproduce: a syntax error (each decoder words its
// own) or a value cut short, rather than a type, unknown-field or
// validation error. Both decoders must agree on which kind they report,
// which pins encoding/json's precedence: a syntax error anywhere in the
// value beats any other.
func syntaxOnly(err error) bool {
	var se *json.SyntaxError
	if errors.As(err, &se) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	msg := err.Error()
	return strings.HasPrefix(msg, "workflow: decode: ") && !strings.HasPrefix(msg, "workflow: decode: json: ") && msg != "workflow: decode: EOF" ||
		strings.HasPrefix(msg, "view: decode: ") && !strings.HasPrefix(msg, "view: decode: json: ") && msg != "view: decode: EOF"
}

// checkViewDecode decodes data over wf with DecodeBytes and the
// reference and fails unless they agree on acceptance, on the exact
// message of every rejection but syntax errors, and on what an accepted
// document builds: the composites in order with their IDs, names and
// members, and the MarshalJSON bytes.
func checkViewDecode(t *testing.T, wf *workflow.Workflow, data []byte) *view.View {
	t.Helper()
	want, werr := view.DecodeReference(wf, data)
	got, gerr := view.DecodeBytes(wf, data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("acceptance diverges on %q:\n  reference: %v\n  decoder:   %v", data, werr, gerr)
	}
	if werr != nil {
		if syntaxOnly(werr) != syntaxOnly(gerr) || !syntaxOnly(werr) && werr.Error() != gerr.Error() {
			t.Fatalf("rejection diverges on %q:\n  reference: %v\n  decoder:   %v", data, werr, gerr)
		}
		return nil
	}
	sameView(t, string(data), want, got)
	return got
}

func sameView(t *testing.T, what string, want, got *view.View) {
	t.Helper()
	if got.Name() != want.Name() || got.N() != want.N() || got.Workflow() != want.Workflow() {
		t.Fatalf("shape diverges on %q: reference %v, decoder %v", what, want, got)
	}
	for i := 0; i < want.N(); i++ {
		w, g := want.Composite(i), got.Composite(i)
		if g.ID != w.ID || g.Name != w.Name || !slices.Equal(g.Members(), w.Members()) {
			t.Fatalf("composite %d diverges on %q: reference %+v, decoder %+v", i, what, *w, *g)
		}
		if ci, ok := got.CompIndex(w.ID); !ok || ci != i {
			t.Fatalf("index of composite %q = %d, %v", w.ID, ci, ok)
		}
	}
	if !slices.Equal(got.PartOf(), want.PartOf()) {
		t.Fatalf("partition diverges on %q", what)
	}
	sameJSON(t, what, want, got)
}

// sameJSON fails unless got encodes to the bytes the encoding/json
// reference gives want, through MarshalJSON, through json.Marshal and
// through json.Marshal of the MarshalJSON bytes as a json.RawMessage.
func sameJSON(t *testing.T, what string, want, got *view.View) {
	t.Helper()
	wj, err := view.MarshalReference(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := got.MarshalJSON()
	gm, _ := json.Marshal(got)
	// Embedded as a json.RawMessage (the storage package's register and
	// attach bodies append it as is), the document must come out as it
	// went in: already compact and HTML-escaped.
	gr, _ := json.Marshal(json.RawMessage(gj))
	if !bytes.Equal(wj, gj) || !bytes.Equal(wj, gm) || !bytes.Equal(wj, gr) {
		t.Fatalf("JSON diverges on %q:\n  reference:    %s\n  MarshalJSON:  %s\n  json.Marshal: %s", what, wj, gj, gm)
	}
}

// TestMarshalJSONMatchesReference pins the hand-rolled encoder to the
// encoding/json one it replaced, on generated views and on the strings
// encoding/json escapes: quotes, backslashes, control bytes, HTML
// characters, invalid UTF-8, U+2028 and U+2029.
func TestMarshalJSONMatchesReference(t *testing.T) {
	for _, v := range genViews(t) {
		sameJSON(t, v.Name(), v, v)
	}
	nasty := []string{`"q"`, `b\s`, "\x01\x1f\x7f", "<a&b>", "\u2028x\u2029", "\xff\xfe", "ü€😀", "\b\f\n\r\t"}
	wb := workflow.NewBuilder("<w&\u2029>")
	for i, s := range nasty {
		wb.AddTask(s + string(rune('a'+i)))
	}
	wf, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := view.NewBuilder(wf, "<v&\u2028\xff>")
	for i, s := range nasty {
		b.Assign(s, wf.Task(i).ID)
		if i%2 == 0 {
			b.Named(s, s+"name")
		}
	}
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "nasty", v, v)
	sameJSON(t, "atomic", view.Atomic(wf), view.Atomic(wf))
}

// fiveTasks is the workflow the corner cases decode against: tasks a–e.
func fiveTasks(t testing.TB) *workflow.Workflow {
	wf, err := workflow.NewBuilder("five").AddTask("a").AddTask("b").AddTask("c").AddTask("d").AddTask("e").
		Chain("a", "b", "c").AddEdge("a", "d").AddEdge("d", "e").Build()
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// viewCorners are the documents the decoder must get exactly right
// beyond the shared jsonwire corpus: the view shape's own nulls,
// duplicate and case-folded keys, type mismatches at every field, error
// precedence, and every Builder failure — duplicate composite IDs
// (merged), unknown, duplicated and unassigned tasks, a workflow-name
// mismatch.
var viewCorners = []string{
	``, ` `, `null`, `{}`, `[]`, `"x"`, `1`, `true`, `{`, `{"composites":[`, "\ufeff{}",
	`{"name":"v","workflow":"five","composites":[{"id":"x","name":"X","members":["a","b","c"]},{"id":"y","members":["d","e"]}]}`,
	`{"name":"v","composites":[{"id":"x","members":["a","b","c","d","e"]}]} trailing`,
	`{"name":"v","composites":[{"id":"x","members":["e","d","c","b","a"]}]}{"name":`,
	`{"NAME":"v","Workflow":"five","COMPOSITES":[{"ID":"x","NAME":"X","Members":["a","b","c","d","e"]}]}`,
	`{"compo\u017fites":[{"id":"x","members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","b"]},{"id":"y","members":["c"]},{"id":"x","name":"X","members":["d","e"]}]}`,
	`{"composites":[{"id":"x","name":"X1","members":["a"]},{"id":"x","name":"X2","members":["b"]},{"id":"x","members":["c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":[]},{"id":"x","members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e"]},{"id":"y","members":[]}]}`,
	`{"composites":[{"id":"x","members":null},{"id":"y","members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"x"},{"id":"y","members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e","a"]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c"]},{"id":"y","members":["c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","b","ghost"]},{"id":"y","members":["c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","a","ghost"]}]}`,
	`{"composites":[{"id":"x","members":["ghost","a","a"]}]}`,
	`{"composites":[{"id":"x","members":["a","b"]},{"id":"y","members":["c"]}]}`,
	`{"composites":[{"id":"x","members":["a","b"]},{"id":"x","members":["ghost"]},{"id":"y","members":["a"]}]}`,
	`{"composites":[{"id":"x","members":["a","b"]},{"id":"y","members":["a"]},{"id":"x","members":["ghost"]}]}`,
	`{"workflow":"other","composites":[{"id":"x","members":["a","b","c","d","e"]}]}`,
	`{"workflow":"","composites":[{"id":"x","members":["a","b","c","d","e"]}]}`,
	`{"workflow":"other","composites":[{"id":"x","members":["ghost"]}],"zzz":1}`,
	`{"composites":null}`, `{"composites":[]}`, `{"name":"v"}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e"]}],"composites":[{"id":"y"}]}`,
	`{"composites":[{"id":"x","name":"X","members":["a","b"]},{"id":"y","members":["c","d","e"]}],"composites":[{"id":"z"}],"composites":[{"id":"w","members":["a","b","c"]},{"members":["d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c"]},{"id":"y","members":["d","e"]}],"composites":[],"composites":[{"id":"w","members":["a","b","c","d","e"]},{}]}`,
	`{"composites":[{"id":"x","members":["a","b","c"]},{"id":"y","members":["d","e"]}],"composites":null,"composites":[{"id":"w","members":["a","b","c","d","e"]},{}]}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e"],"members":["e"],"members":["d",null,null,null,null]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e"],"members":[],"members":["a",null]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e"],"members":null,"members":["a",null]}]}`,
	`{"composites":[{"id":"x","members":[null,"a","b","c","d","e"]}]}`,
	`{"composites":[null,{"id":"x","members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"x","members":["a","b","c","d","e"]},null]}`,
	`{"composites":[{"id":null,"members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"","members":["a","b","c","d","e"]}]}`,
	`{"composites":[{"id":"\u0078\ud83d\ude00","name":"\ud800","members":["a","b","c","d","e"]}]}`,
	"{\"composites\":[{\"id\":\"\xff\",\"name\":\"\xfe\",\"members\":[\"a\",\"b\",\"c\",\"d\",\"e\"]}]}",
	"{\"composites\":[{\"id\":\"x\",\"members\":[\"a\",\"b\",\"c\",\"d\",\"\xff\"]}]}",
	`{"x":1}`, `{"composites":[{"id":"x","x":1}]}`, `{"composites":[{"id":"x","members":["a"],"extra":[1,{"y":2}]}]}`,
	`{"name":1}`, `{"workflow":false}`, `{"name":{}}`, `{"composites":{}}`, `{"composites":"x"}`, `{"composites":[1]}`,
	`{"composites":[[]]}`, `{"composites":[{"id":1}]}`, `{"composites":[{"name":[]}]}`, `{"composites":[{"members":"a"}]}`,
	`{"composites":[{"members":[1]}]}`, `{"composites":[{"members":[["a"]]}]}`, `{"composites":[{"members":[{}]}]}`,
	`{"name":1,"x":2}`, `{"x":2,"name":1}`, `{"name":1,"composites":[{"id":"a"}],"x":tru}`,
	`{"x":1,"composites":[{"id":"x","members":["a","a"]}]}`, `{"composites":[{"id":"x","members":["ghost"]}],"name":5}`,
	`{"workflow":5,"composites":[{"id":"x","members":["ghost"]}]}`,
}

// genViews are generated views of every kind the benchmark and the
// experiments build, over generated workflows of the three shapes.
func genViews(t testing.TB) []*view.View {
	var vs []*view.View
	for _, wf := range []*workflow.Workflow{
		gen.Layered(gen.LayeredConfig{Name: "layered", Tasks: 300, Layers: 12, EdgeProb: 0.1, Seed: 3}),
		gen.SeriesParallel(gen.SPConfig{Name: "sp", Depth: 5, MaxBranch: 4, Seed: 5}),
		gen.ScientificPipeline(gen.PipelineConfig{Name: "pipe", Branches: 6, ChainLen: 8, SideChains: 3, SideChainLen: 3, Seed: 6}),
	} {
		k := max(2, wf.N()/16)
		vs = append(vs,
			gen.IntervalView(wf, k, "interval"),
			gen.RandomView(wf, k, 7, "random"),
			gen.ModuleView(wf, "module"),
			gen.InjectUnsound(gen.IntervalView(wf, k, "unsound"), max(1, k/8), 8),
			view.Atomic(wf))
	}
	return vs
}

func TestViewDecodeMatchesReference(t *testing.T) {
	for _, v := range genViews(t) {
		doc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		checkViewDecode(t, v.Workflow(), doc)
		var ind bytes.Buffer
		if err := v.EncodeJSON(&ind); err != nil {
			t.Fatal(err)
		}
		checkViewDecode(t, v.Workflow(), ind.Bytes())
	}
	wf := fiveTasks(t)
	for _, c := range viewCorners {
		checkViewDecode(t, wf, []byte(c))
	}
	for _, c := range jsonwiretest.Seeds {
		checkViewDecode(t, wf, []byte(c))
	}
	checkViewDecode(t, wf, jsonwiretest.Deep(jsonwire.MaxDepth-1))
	checkViewDecode(t, wf, jsonwiretest.Deep(jsonwire.MaxDepth+1))
	small := []byte(`{"name":"s","workflow":"five","composites":[{"id":"x","name":"X","members":["a","b"]},{"id":"y","members":["c","d","e"]}]}`)
	for i := range small {
		checkViewDecode(t, wf, small[:i])
		checkViewDecode(t, wf, append(slices.Clone(small[:i]), small[i+1:]...))
	}
}

// TestViewDecodeKeepsNoInput scribbles over the document after the
// decode: every string the view keeps must be unchanged, because the
// decoder copies them out instead of aliasing the request body.
func TestViewDecodeKeepsNoInput(t *testing.T) {
	for _, v := range genViews(t) {
		doc, _ := json.Marshal(v)
		got, err := view.DecodeBytes(v.Workflow(), doc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range doc {
			doc[i] = 'X'
		}
		if _, err := view.DecodeBytes(v.Workflow(), []byte(`{"name":"zzzzzzzz","composites":[{"id":"zzzzzzzz","name":"zzzzzzzz"}]}`)); err == nil {
			t.Fatal("an empty composite decoded")
		}
		sameView(t, v.Name(), v, got)
	}
}

// TestViewDecodeAllocations holds the decode to a fixed number of
// allocations whatever the workflow's size.
func TestViewDecodeAllocations(t *testing.T) {
	if testing.Short() || jsonwiretest.Race {
		t.Skip("allocation counts are measured in the full, race-free run")
	}
	allocs := func(n int) float64 {
		wf := gen.Layered(gen.LayeredConfig{Name: "a", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: 9})
		doc, _ := json.Marshal(gen.IntervalView(wf, 64, "iv"))
		return testing.AllocsPerRun(20, func() {
			if _, err := view.DecodeBytes(wf, doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1024), allocs(4096)
	if small > 16 || large > small+4 {
		t.Fatalf("decode allocates %.0f objects at n=1024 and %.0f at n=4096", small, large)
	}
}

func FuzzViewDecode(f *testing.F) {
	for _, c := range viewCorners {
		f.Add([]byte(c))
	}
	for _, c := range jsonwiretest.Seeds {
		f.Add([]byte(c))
	}
	wf := fiveTasks(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkViewDecode(t, wf, data)
	})
}
