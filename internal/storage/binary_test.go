package storage

import (
	"bytes"
	"reflect"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/workflow"
)

// TestBinaryBodyRoundTrip pins the binary WAL body codecs against the
// JSON compat decoders: the same logical record must decode to the same
// body regardless of which encoding carried it, and the two encodings
// must stay byte-sniff disjoint (binary opens bodyBinV1, JSON opens
// '{').
func TestBinaryBodyRoundTrip(t *testing.T) {
	batch := &engine.AppliedBatch{
		Tasks: []workflow.Task{
			{ID: "t1", Name: "align", Kind: "exec"},
			{ID: "t2", Name: "", Kind: ""}, // empty optional fields survive
		},
		Edges: [][2]string{{"t1", "t2"}, {"t0", "t1"}},
	}
	bin := appendMutateBinary(nil, "wf/α", 41, batch)
	if bin[0] != bodyBinV1 {
		t.Fatalf("binary mutate body opens 0x%02x", bin[0])
	}
	// The JSON-era body of the same batch, as the JSON writer emitted it.
	jsonBody := []byte(`{"id":"wf/α","version":41,"tasks":[{"id":"t1","name":"align","kind":"exec"},{"id":"t2"}],"edges":[["t1","t2"],["t0","t1"]]}`)
	fromBin, err := decodeMutateBody(bin)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := decodeMutateBody(jsonBody)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin, fromJSON) {
		t.Fatalf("decoded bodies diverge:\nbinary: %+v\njson:   %+v", fromBin, fromJSON)
	}
	if !reflect.DeepEqual(fromBin.mutation().Edges, batch.Edges) || len(fromBin.mutation().Tasks) != 2 {
		t.Fatalf("mutation reconstruction: %+v", fromBin.mutation())
	}

	// Run bodies: the embedded document is opaque — JSON or the run
	// store's binary form must pass through verbatim.
	for _, doc := range [][]byte{[]byte(`{"run":"r1"}`), {0xD1, 0x05, 0x02, 'r', '1', 0x00, 0x00, 0x00}, {}} {
		body := appendRunBinary(nil, "wf", "r1", doc)
		got, err := decodeRunBody(body)
		if err != nil {
			t.Fatalf("doc %v: %v", doc, err)
		}
		if got.ID != "wf" || got.Run != "r1" || !bytes.Equal(got.Doc, doc) {
			t.Fatalf("doc %v round-tripped to %+v", doc, got)
		}
	}

	// Every truncation of a binary body must error, never panic or
	// decode to a half-filled body.
	for cut := 0; cut < len(bin); cut++ {
		if _, err := decodeMutateBody(bin[:cut]); err == nil {
			t.Fatalf("mutate body truncated to %d bytes decoded clean", cut)
		}
	}
	runBin := appendRunBinary(nil, "wf", "r1", []byte(`{"run":"r1"}`))
	for cut := 0; cut < len(runBin); cut++ {
		if _, err := decodeRunBody(runBin[:cut]); err == nil {
			t.Fatalf("run body truncated to %d bytes decoded clean", cut)
		}
	}

	// Trailing garbage after a well-formed body is corruption, not
	// silently ignored bytes.
	if _, err := decodeMutateBody(append(append([]byte{}, bin...), 0x00)); err == nil {
		t.Fatal("mutate body with trailing byte decoded clean")
	}
	if _, err := decodeRunBody(append(append([]byte{}, runBin...), 0x00)); err == nil {
		t.Fatal("run body with trailing byte decoded clean")
	}
}
