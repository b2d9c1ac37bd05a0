package workflow_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"wolves/internal/gen"
	"wolves/internal/jsonwire"
	"wolves/internal/jsonwire/jsonwiretest"
	"wolves/internal/workflow"
)

// jsonWorkflow is the document shape, for tests that edit documents.
type jsonWorkflow struct {
	Name  string      `json:"name"`
	Tasks []any       `json:"tasks"`
	Edges [][2]string `json:"edges"`
}

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

// checkWorkflowDecode decodes data with DecodeBytes and the reference
// and fails unless they agree on acceptance, on the exact message of
// every rejection but syntax errors, and on what an accepted document
// builds: the tasks, every successor and predecessor list in order, the
// fingerprint and the MarshalJSON bytes.
func checkWorkflowDecode(t *testing.T, data []byte) *workflow.Workflow {
	t.Helper()
	want, werr := workflow.DecodeReference(data)
	got, gerr := workflow.DecodeBytes(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("acceptance diverges on %q:\n  reference: %v\n  decoder:   %v", data, werr, gerr)
	}
	if werr != nil {
		if syntaxOnly(werr) != syntaxOnly(gerr) || !syntaxOnly(werr) && werr.Error() != gerr.Error() {
			t.Fatalf("rejection diverges on %q:\n  reference: %v\n  decoder:   %v", data, werr, gerr)
		}
		return nil
	}
	sameWorkflow(t, data, want, got)
	return got
}

func sameWorkflow(t *testing.T, data []byte, want, got *workflow.Workflow) {
	t.Helper()
	if got.Name() != want.Name() || got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape diverges on %q: reference %v, decoder %v", data, want, got)
	}
	for i := 0; i < want.N(); i++ {
		if got.Task(i) != want.Task(i) {
			t.Fatalf("task %d diverges on %q: reference %+v, decoder %+v", i, data, want.Task(i), got.Task(i))
		}
		if !slices.Equal(got.Graph().Succs(i), want.Graph().Succs(i)) || !slices.Equal(got.Graph().Preds(i), want.Graph().Preds(i)) {
			t.Fatalf("adjacency of task %d diverges on %q", i, data)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint diverges on %q", data)
	}
	sameJSON(t, string(data), want, got)
}

// sameJSON fails unless got encodes to the bytes the encoding/json
// reference gives want, through MarshalJSON and through json.Marshal.
func sameJSON(t *testing.T, what string, want, got *workflow.Workflow) {
	t.Helper()
	wj, err := workflow.MarshalReference(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := got.MarshalJSON()
	gm, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) || !bytes.Equal(wj, gm) {
		t.Fatalf("JSON diverges on %q:\n  reference:   %s\n  MarshalJSON: %s\n  json.Marshal: %s", what, wj, gj, gm)
	}
}

// TestMarshalJSONMatchesReference pins the hand-rolled encoder to the
// encoding/json one it replaced, on generated workflows and on the
// strings encoding/json escapes: quotes, backslashes, control bytes,
// HTML characters, invalid UTF-8, U+2028 and U+2029.
func TestMarshalJSONMatchesReference(t *testing.T) {
	for _, wf := range genWorkflows() {
		sameJSON(t, wf.Name(), wf, wf)
	}
	nasty := []string{`"q"`, `b\s`, "\x01\x1f\x7f", "<a&b>", "\u2028x\u2029", "\xff\xfe", "ü€😀", "\b\f\n\r\t", ""}
	b := workflow.NewBuilder("<nasty\u2028>")
	for i, s := range nasty {
		id := fmt.Sprintf("t%d%s", i, s)
		b.AddTask(id, workflow.WithName(s+"n"), workflow.WithKind(s))
		if i > 0 {
			b.AddEdge(fmt.Sprintf("t%d%s", i-1, nasty[i-1]), id)
		}
	}
	wf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "nasty", wf, wf)
	lone, err := workflow.NewBuilder("").AddTask("only", workflow.WithName("only")).Build()
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "no edges", lone, lone)
}

// workflowCorners are the documents the decoder must get exactly right
// beyond the shared jsonwire corpus: the workflow shape's own nulls,
// duplicate and case-folded keys, type mismatches at every field, the
// two-element edge arrays, error precedence, and every Builder failure.
var workflowCorners = []string{
	``, ` `, `null`, ` null x`, `{}`, `[]`, `"x"`, `1`, `12x`, `true`, `{`, `{"tasks":[`, "\ufeff{}",
	`{"name":"w","tasks":[{"id":"a"},{"id":"b","name":"B","kind":"k"}],"edges":[["a","b"]]}`,
	`{"name":"w","tasks":[{"id":"a"}]} trailing garbage`,
	`{"name":"w","tasks":[{"id":"a"}]}{"name":`,
	`{"NAME":"w","Tasks":[{"ID":"a","KIND":"k","Name":"n"}],"EDGES":[]}`,
	`{"ta\u017fks":[{"id":"a"}]}`, `{"tas\u212as":[{"id":"a"}]}`, "{\"tasks\":[{\"\xc4\xb1d\":\"a\"}]}",
	`{"name":"a","name":null,"tasks":[{"id":"a"}]}`,
	`{"tasks":[{"id":"a","name":"A"},{"id":"b","kind":"k"}],"tasks":[{"id":"c"}],"tasks":[{"id":"d"},{"id":"e"}]}`,
	`{"tasks":[{"id":"a","name":"A"}],"tasks":null,"tasks":[{"id":"b"}]}`,
	`{"tasks":[{"id":"a","name":"A"}],"tasks":[],"tasks":[{"id":"b"}]}`,
	`{"tasks":[{"id":"a","name":"A"},{"id":"b"}],"tasks":[null,null]}`,
	`{"tasks":[null,{"id":"a"}]}`, `{"tasks":[{"id":null}]}`, `{"tasks":[{"id":"a","id":"b"}]}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":null}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":[null]}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":[["a"]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":[[]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b","c"]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","b",5,{"x":[1]},null]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"}],"edges":[["a",null]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"],["b","c"]],"edges":[["a"]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"]],"edges":[null,["b","c"]]}`,
	`{"tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"],["b","c"]],"edges":[["b","c"]],"edges":[["a","c"],null]}`,
	`{"tasks":[{"id":"a\u0062"},{"id":"\ud83d\ude00"},{"id":"\ud800"},{"id":"\u00e9"}],"edges":[["ab","\ud83d\ude00"]]}`,
	"{\"tasks\":[{\"id\":\"\xff\"},{\"id\":\"\xfe\"}],\"edges\":[[\"\xff\",\"\xfe\"]]}",
	"{\"tasks\":[{\"id\":\"\xff\"},{\"id\":\"\xef\xbf\xbd\"}]}",
	`{"x":1}`, `{"tasks":[{"id":"a","x":1}]}`, `{"tasks":[{"id":"a"}],"edges":[{"a":"b"}]}`,
	`{"name":1}`, `{"name":true}`, `{"name":{}}`, `{"name":[]}`, `{"tasks":{}}`, `{"tasks":"x"}`,
	`{"tasks":[1]}`, `{"tasks":[[]]}`, `{"tasks":[{"id":1}]}`, `{"tasks":[{"kind":[]}]}`, `{"tasks":[{"name":false}]}`,
	`{"edges":1}`, `{"edges":[1]}`, `{"edges":["ab"]}`, `{"edges":[[1,"b"]]}`, `{"edges":[["a",true]]}`, `{"edges":[["a",{}]]}`,
	`{"name":1,"x":2}`, `{"x":2,"name":1}`, `{"name":1,"tasks":[{"id":"a"}],"x":tru}`,
	`{"x":1,"tasks":[{"id":"a"},{"id":"a"}]}`, `{"tasks":[{"id":"a"},{"id":"a"}],"name":5}`,
	`{"name":"x","tasks":[]}`, `{"name":"x","tasks":null}`, `{"tasks":[{"id":"a"},{"id":"a"}]}`, `{"tasks":[{"id":""}]}`,
	`{"tasks":[{"id":""},{"id":"a"},{"id":"a"}]}`,
	`{"tasks":[{"id":"a"}],"edges":[["z","a"]]}`, `{"tasks":[{"id":"a"}],"edges":[["a","z"]]}`,
	`{"tasks":[{"id":"a"}],"edges":[["a","a"]]}`, `{"tasks":[{"id":"a"},{"id":"b"}],"edges":[["a","a"],["z","b"]]}`,
	`{"name":"cyc","tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"],["b","c"],["c","a"]]}`,
	`{"name":"dup","tasks":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[["a","b"],["a","c"],["a","b"],["b","c"],["a","c"]]}`,
	`{"tasks":[{"id":"a"}],"edges":[]}`, `{"tasks":[{"id":"a","name":""}]}`,
}

// genWorkflows are generated workflows of the three shapes the
// benchmark and the experiments use.
func genWorkflows() []*workflow.Workflow {
	return []*workflow.Workflow{
		gen.Layered(gen.LayeredConfig{Name: "layered", Tasks: 300, Layers: 12, EdgeProb: 0.1, SkipProb: 0.01, Seed: 3}),
		gen.Layered(gen.LayeredConfig{Name: "dense", Tasks: 64, Layers: 4, EdgeProb: 0.9, Seed: 4}),
		gen.SeriesParallel(gen.SPConfig{Name: "sp", Depth: 5, MaxBranch: 4, Seed: 5}),
		gen.ScientificPipeline(gen.PipelineConfig{Name: "pipe", Branches: 6, ChainLen: 8, SideChains: 3, SideChainLen: 3, Seed: 6}),
	}
}

func TestWorkflowDecodeMatchesReference(t *testing.T) {
	for _, wf := range genWorkflows() {
		doc, err := json.Marshal(wf)
		if err != nil {
			t.Fatal(err)
		}
		checkWorkflowDecode(t, doc)
		// The indented form, and the document with its edge list reversed.
		var ind bytes.Buffer
		if err := wf.EncodeJSON(&ind); err != nil {
			t.Fatal(err)
		}
		checkWorkflowDecode(t, ind.Bytes())
		var jw jsonWorkflow
		if err := json.Unmarshal(doc, &jw); err != nil {
			t.Fatal(err)
		}
		slices.Reverse(jw.Edges)
		rev, _ := json.Marshal(jw)
		if got := checkWorkflowDecode(t, rev); got.Fingerprint() != wf.Fingerprint() {
			t.Fatalf("%s: reversed edge list changed the fingerprint", wf.Name())
		}
	}
	for _, c := range workflowCorners {
		checkWorkflowDecode(t, []byte(c))
	}
	for _, c := range jsonwiretest.Seeds {
		checkWorkflowDecode(t, []byte(c))
	}
	checkWorkflowDecode(t, jsonwiretest.Deep(jsonwire.MaxDepth-1))
	checkWorkflowDecode(t, jsonwiretest.Deep(jsonwire.MaxDepth+1))
	// Every prefix and every one-byte deletion of a small document: cut
	// values, broken literals, dangling keys and commas.
	small := []byte(`{"name":"s","tasks":[{"id":"a","kind":"k"},{"id":"b","name":"B"},{"id":"c"}],"edges":[["a","b"],["b","c"],["a","c"]]}`)
	for i := range small {
		checkWorkflowDecode(t, small[:i])
		checkWorkflowDecode(t, append(slices.Clone(small[:i]), small[i+1:]...))
	}
}

// TestWorkflowDecodeReaderMatchesBytes pins DecodeJSON, the io.Reader
// entry point of the CLI and the public API, to DecodeBytes: the same
// first value, bytes after it ignored, whatever the reader's chunking.
func TestWorkflowDecodeReaderMatchesBytes(t *testing.T) {
	doc, _ := json.Marshal(genWorkflows()[0])
	for _, data := range [][]byte{doc, append(slices.Clone(doc), " {garbage"...), []byte(`{"tasks":[`), nil} {
		want, werr := workflow.DecodeBytes(data)
		got, gerr := workflow.DecodeJSON(io.MultiReader(bytes.NewReader(data[:len(data)/2]), bytes.NewReader(data[len(data)/2:])))
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("reader decode diverges on %q: bytes %v, reader %v", data, werr, gerr)
		}
		if werr == nil && want.Fingerprint() != got.Fingerprint() {
			t.Fatalf("reader decode built a different workflow from %q", data)
		}
	}
	// A read that fails mid-value reports the read error, not a
	// truncated document.
	failing := io.MultiReader(strings.NewReader(`{"tasks":[{"id":"a"}`), iotest{})
	if _, err := workflow.DecodeJSON(failing); !errors.Is(err, errRead) {
		t.Fatalf("read failure surfaced as %v", err)
	}
}

var errRead = errors.New("read failed")

type iotest struct{}

func (iotest) Read([]byte) (int, error) { return 0, errRead }

// TestWorkflowDecodeKeepsNoInput scribbles over the document after the
// decode: every string the workflow keeps must be unchanged, because
// the decoder copies them out instead of aliasing the request body.
func TestWorkflowDecodeKeepsNoInput(t *testing.T) {
	for _, wf := range genWorkflows() {
		doc, _ := json.Marshal(wf)
		got, err := workflow.DecodeBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range doc {
			doc[i] = 'X'
		}
		// A second decode reuses the pooled arena the first wrote into.
		if _, err := workflow.DecodeBytes([]byte(`{"name":"other","tasks":[{"id":"zzzzzzzzzzzzzzzz","name":"zzzz","kind":"zzzz"}]}`)); err != nil {
			t.Fatal(err)
		}
		if got.Name() != wf.Name() {
			t.Fatalf("name changed to %q", got.Name())
		}
		for i := 0; i < wf.N(); i++ {
			if got.Task(i) != wf.Task(i) {
				t.Fatalf("task %d changed: %+v, want %+v", i, got.Task(i), wf.Task(i))
			}
			if j, ok := got.Index(wf.Task(i).ID); !ok || j != i {
				t.Fatalf("index of %q = %d, %v", wf.Task(i).ID, j, ok)
			}
		}
	}
}

// TestWorkflowDecodeAllocations holds the decode to a fixed number of
// allocations whatever the workflow's size.
func TestWorkflowDecodeAllocations(t *testing.T) {
	if testing.Short() || jsonwiretest.Race {
		t.Skip("allocation counts are measured in the full, race-free run")
	}
	allocs := func(n int) float64 {
		wf := gen.Layered(gen.LayeredConfig{Name: "a", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: 9})
		doc, _ := json.Marshal(wf)
		return testing.AllocsPerRun(20, func() {
			if _, err := workflow.DecodeBytes(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1024), allocs(4096)
	if small > 24 || large > small+4 {
		t.Fatalf("decode allocates %.0f objects at n=1024 and %.0f at n=4096", small, large)
	}
}

func FuzzWorkflowDecode(f *testing.F) {
	for _, c := range workflowCorners {
		f.Add([]byte(c))
	}
	for _, c := range jsonwiretest.Seeds {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWorkflowDecode(t, data)
	})
}
