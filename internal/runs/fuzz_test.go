package runs

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/repo"
)

// fuzzRegistry builds the registry once per fuzz worker. Each iteration
// layers a fresh run store over it, so runs accumulated by one input
// cannot mask a crash on the next.
func fuzzRegistry(f *testing.F) *engine.Registry {
	f.Helper()
	wf, _ := repo.Figure1()
	reg := engine.NewRegistry(engine.New())
	if _, err := reg.RegisterCtx(context.Background(), "phylo", wf); err != nil {
		f.Fatal(err)
	}
	return reg
}

// checkIngestErr asserts the rejection contract malformed input must
// honor: every rejection is a typed *engine.Error carrying
// invalid_trace (422) or bad_input (400) — never internal, never
// untyped. Panics are caught by the fuzzer itself.
func checkIngestErr(t *testing.T, err error) {
	t.Helper()
	var ee *engine.Error
	if !errors.As(err, &ee) {
		t.Fatalf("ingest rejection is not a typed *engine.Error: %v", err)
	}
	if ee.Code != engine.ErrInvalidTrace && ee.Code != engine.ErrBadInput {
		t.Fatalf("ingest rejection carries code %q, want invalid_trace or bad_input: %v", ee.Code, err)
	}
}

// FuzzIngestDoc throws arbitrary bytes at the whole-document OPM ingest
// path (decode → validate → intern → canonical re-encode), and at
// RestoreRun, and checks both against the string reference
// (ingest_ref_test.go).
func FuzzIngestDoc(f *testing.F) {
	f.Add(figure1RunDoc("r1"))
	f.Add([]byte(`{"run":"r2","invocations":[{"id":"i1","task":"CRB"}],` +
		`"artifacts":[{"id":"a1","generated_by":"i1"}],"used":[{"process":"i1","artifact":"a1"}]}`))
	f.Add([]byte(`{"run":"r3","artifacts":[{"id":"a1"}]}`))
	f.Add([]byte(`{"run":""}`))
	f.Add([]byte(`{"run":"dup","artifacts":[{"id":"a1"},{"id":"a1"}]}`))
	f.Add([]byte(`{"run":"dangle","artifacts":[{"id":"a1"}],"used":[{"process":"CRB","artifact":"nope"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))

	reg := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkIngestAgainstRef(t, reg, "phylo", doc, nil)
		s := New(reg)
		info, err := s.IngestCtx(context.Background(), "phylo", doc)
		if err != nil {
			checkIngestErr(t, err)
			return
		}
		// An accepted run must re-ingest cleanly from its own canonical
		// document: WAL replay and snapshot restore depend on that round
		// trip.
		_, run, lerr := s.lookup("phylo", info.Run)
		if lerr != nil {
			t.Fatalf("accepted run %q not queryable: %v", info.Run, lerr)
		}
		if _, rerr := New(reg).IngestCtx(context.Background(), "phylo", run.doc); rerr != nil {
			t.Fatalf("canonical document of accepted run %q rejected on re-ingest: %v", info.Run, rerr)
		}
	})
}

// FuzzIngestNDJSON throws arbitrary byte streams at the NDJSON ingest
// path, including torn final lines — which must reject the whole run
// (runs are atomic, never partially ingested) — and checks it against
// the string reference.
func FuzzIngestNDJSON(f *testing.F) {
	f.Add([]byte("{\"run\":\"r1\"}\n{\"artifact\":{\"id\":\"a1\",\"generated_by\":\"CRB\"}}\n" +
		"{\"used\":{\"process\":\"CRB\",\"artifact\":\"a1\"}}\n"))
	f.Add([]byte("{\"run\":\"r2\"}\n{\"invocation\":{\"id\":\"i1\",\"task\":\"CRB\"}}\n"))
	f.Add([]byte("{\"run\":\"r3\"}\n{\"artifact\":{\"id\":\"a1\"}}")) // final line whole, just unterminated
	f.Add([]byte("{\"run\":\"r4\"}\n{\"artifact\":{\"id\":\"a1\""))   // final line torn mid-record
	f.Add([]byte("{\"run\":\"r5\"}\n{}\n"))                           // record declaring nothing
	f.Add([]byte("{\"run\":\"r6\"}\n{\"run\":\"other\"}\n"))          // conflicting run ids
	f.Add([]byte("\n\n"))
	f.Add([]byte{})

	reg := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, stream []byte) {
		checkNDJSONAgainstRef(t, reg, "phylo", stream)
		s := New(reg)
		info, err := s.IngestNDJSONCtx(context.Background(), "phylo", bytes.NewReader(stream))
		if err != nil {
			checkIngestErr(t, err)
			return
		}
		if _, _, lerr := s.lookup("phylo", info.Run); lerr != nil {
			t.Fatalf("accepted NDJSON run %q not queryable: %v", info.Run, lerr)
		}
	})
}
