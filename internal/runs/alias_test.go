package runs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// This file pins that an ingested run owns every byte it keeps: no ID,
// listing, lineage answer or canonical document may alias the buffer
// the run was decoded from, so a caller reusing its buffer — or the
// pooled NDJSON reader refilling its own — cannot corrupt a stored run.

// aliasWorkflowStore registers a layered workflow with an interval view
// in a fresh registry.
func aliasWorkflowStore(t *testing.T) (*engine.Registry, *workflow.Workflow) {
	t.Helper()
	wf := gen.Layered(gen.LayeredConfig{Name: "alias", Tasks: 96, Layers: 8, EdgeProb: 0.1, Seed: 15})
	reg := engine.NewRegistry(engine.New())
	lw, err := reg.Register("wf", wf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lw.AttachView("iv", func(wf *workflow.Workflow) (*view.View, error) {
		return gen.IntervalView(wf, 8, "iv"), nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg, wf
}

// aliasRunDoc is one run over every task of wf, in JSON and NDJSON
// (every line newline-terminated), with explicit invocations and IDs
// that take the decoder's escape and non-ASCII paths.
func aliasRunDoc(wf *workflow.Workflow, runID string) (doc, ndjson []byte) {
	var invs, arts, used, lines []string
	lines = append(lines, fmt.Sprintf(`{"run":%q}`, runID))
	inv := func(i int) string { return fmt.Sprintf(`invé-%s-%d`, runID, i) }
	art := func(i int) string { return fmt.Sprintf(`art\"%d\/é`, i) }
	for i := 0; i < wf.N(); i++ {
		o := fmt.Sprintf(`{"id":"%s","task":%q}`, inv(i), wf.Task(i).ID)
		invs = append(invs, o)
		lines = append(lines, `{"invocation":`+o+`}`)
		o = fmt.Sprintf(`{"id":"%s","generated_by":"%s"}`, art(i), inv(i))
		arts = append(arts, o)
		lines = append(lines, `{"artifact":`+o+`}`)
	}
	wf.Graph().Edges(func(u, v int) {
		o := fmt.Sprintf(`{"process":"%s","artifact":"%s"}`, inv(v), art(u))
		used = append(used, o)
		lines = append(lines, `{"used":`+o+`}`)
	})
	doc = []byte(fmt.Sprintf(`{"run":%q,"invocations":[%s],"artifacts":[%s],"used":[%s]}`,
		runID, strings.Join(invs, ","), strings.Join(arts, ","), strings.Join(used, ",")))
	return doc, []byte(strings.Join(lines, "\n") + "\n")
}

// scribbleReader hands its stream out one line per Read and, on every
// Read, first overwrites the bytes it handed out on the previous one.
// By then the consumer has framed and decoded that line (it asks for
// more only once its buffer holds no further newline), so whatever it
// kept aliasing the line is corrupted.
type scribbleReader struct {
	data      []byte
	last      []byte
	scribbled int
}

func (r *scribbleReader) Read(p []byte) (int, error) {
	for i := range r.last {
		r.last[i] = '#'
	}
	r.scribbled += len(r.last)
	r.last = nil
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	line := r.data
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i+1]
	}
	n := copy(p, line)
	r.data = r.data[n:]
	r.last = p[:n]
	return n, nil
}

// runFingerprint renders what s holds for run runID of workflow "wf":
// its info, invocation and artifact IDs, canonical document, and lineage
// answers at every level for a sample of its artifacts.
func runFingerprint(t *testing.T, s *Store, runID string) string {
	t.Helper()
	info, err := s.Info("wf", runID)
	if err != nil {
		t.Fatal(err)
	}
	_, run, err := s.lookup("wf", runID)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%+v %q %q %x\n", *info, run.procID, run.artID, run.Doc())
	for i := 0; i < len(run.artID); i += 7 {
		for _, q := range levelQueries(runID, run.artID[i], []string{"iv"}) {
			ans, err := s.Lineage("wf", q)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(ans.AppendJSON(nil))
			ans.Release()
		}
	}
	return b.String()
}

// TestIngestRetainsNoRequestBuffer ingests the same runs as JSON, as a
// JSON batch and as NDJSON into one store each while the bytes they came
// from are destroyed — the JSON and batch bodies scribbled over once the
// call returns, the NDJSON stream through scribbleReader — and later
// ingests reuse the pooled scratch. Each store must still list the runs
// in order, hold the artifact IDs the documents spell, and render every
// run exactly as a store holding only that run did right after ingesting
// it.
func TestIngestRetainsNoRequestBuffer(t *testing.T) {
	reg, wf := aliasWorkflowStore(t)
	ids := []string{"r1", "r2", "r3"}
	want := make(map[string]string)
	for _, id := range ids {
		s := New(reg)
		doc, _ := aliasRunDoc(wf, id)
		if _, err := s.Ingest("wf", doc); err != nil {
			t.Fatal(err)
		}
		want[id] = runFingerprint(t, s, id)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = '#'
		}
	}

	single := New(reg)
	for _, id := range ids {
		doc, _ := aliasRunDoc(wf, id)
		if _, err := single.Ingest("wf", doc); err != nil {
			t.Fatal(err)
		}
		scribble(doc)
	}

	batch := New(reg)
	var docs []string
	for _, id := range ids {
		doc, _ := aliasRunDoc(wf, id)
		docs = append(docs, string(doc))
	}
	body := []byte("[" + strings.Join(docs, " ,\n") + "]")
	framed, err := SplitBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.IngestBatch("wf", framed); err != nil {
		t.Fatal(err)
	}
	scribble(body)

	stream := New(reg)
	for _, id := range ids {
		_, nd := aliasRunDoc(wf, id)
		r := &scribbleReader{data: nd}
		if _, err := stream.IngestNDJSON("wf", r); err != nil {
			t.Fatal(err)
		}
		if r.scribbled < len(nd) {
			t.Fatalf("reader scribbled %d of %d bytes", r.scribbled, len(nd))
		}
	}

	for name, s := range map[string]*Store{"json": single, "batch": batch, "ndjson": stream} {
		infos, err := s.Runs("wf")
		if err != nil {
			t.Fatal(err)
		}
		for i, info := range infos {
			if i >= len(ids) || info.Run != ids[i] {
				t.Fatalf("%s: Runs() lists %+v, want %v", name, infos, ids)
			}
		}
		for _, id := range ids {
			_, run, err := s.lookup("wf", id)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range run.artID {
				if want := fmt.Sprintf("art\"%d/é", i); a != want {
					t.Fatalf("%s: run %s artifact %d is %q, want %q", name, id, i, a, want)
				}
			}
			if got := runFingerprint(t, s, id); got != want[id] {
				t.Fatalf("%s: run %s changed after its request bytes were overwritten:\n got: %.300s\nwant: %.300s",
					name, id, got, want[id])
			}
		}
	}
}

// TestScratchPoolCapsArena ingests one document, one NDJSON line and
// one batch larger than the pool's per-buffer cap, then drains the pool:
// no pooled scratch may keep an arena (or unquote, spill or encode
// buffer) past the cap, nor still reference a request body.
func TestScratchPoolCapsArena(t *testing.T) {
	s, _ := figure1Store(t)
	var arts []string
	for i := 0; len(arts)*160 < 2*scratchKeep; i++ {
		arts = append(arts, fmt.Sprintf(`{"id":"a%d-%s","generated_by":"1"}`, i, strings.Repeat("x", 140)))
	}
	doc := []byte(`{"run":"big","artifacts":[` + strings.Join(arts, ",") + `]}`)
	if len(doc) <= scratchKeep {
		t.Fatalf("document of %d bytes does not exceed the %d-byte cap", len(doc), scratchKeep)
	}
	if _, err := s.Ingest("phylo", doc); err != nil {
		t.Fatal(err)
	}
	// One NDJSON line past the cap grows the spill buffer and the arena.
	stream := `{"run":"big2"}` + "\n" +
		`{"artifact":{"id":"` + strings.Repeat("y", 3*scratchKeep/2) + `","generated_by":"1"}}` + "\n"
	if _, err := s.IngestNDJSON("phylo", strings.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	// A batch framed out of one body, whose second document carries an
	// escaped unknown field past the cap: the decoder reads both
	// documents out of the body and unquotes the skipped field into its
	// scratch buffer.
	body := []byte(`[{"run":"b1","artifacts":[{"id":"a","generated_by":"1"}]},` +
		`{"run":"b2","note":"` + strings.Repeat(`\n`, 3*scratchKeep/2) + `","artifacts":[{"id":"a","generated_by":"1"}]}]`)
	docs, err := SplitBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBatch("phylo", docs); err != nil {
		t.Fatal(err)
	}
	var drained []*ingestScratch
	defer func() {
		for _, sc := range drained {
			scratchPool.Put(sc)
		}
	}()
	for i := 0; i < 64; i++ {
		sc := scratchPool.Get().(*ingestScratch)
		drained = append(drained, sc)
		refs, unquote := sc.jd.Holds()
		if cap(sc.w.arena) > scratchKeep || unquote > scratchKeep ||
			cap(sc.spill) > scratchKeep || cap(sc.enc) > scratchKeep {
			t.Fatalf("pooled scratch keeps arena %d, unquote %d, spill %d, encode %d bytes; cap %d",
				cap(sc.w.arena), unquote, cap(sc.spill), cap(sc.enc), scratchKeep)
		}
		if refs {
			t.Fatal("pooled scratch still references a decoded input or arena")
		}
	}
}

// TestConcurrentIngestKeepsRunsIntact runs JSON, NDJSON and batch
// ingests from several goroutines into one store, each scribbling over
// its document once the call returns, so pooled scratch (arena, slices,
// stream reader) is shared across goroutines only through the pool.
// Every run must render exactly as a store holding only that run did.
func TestConcurrentIngestKeepsRunsIntact(t *testing.T) {
	reg, wf := aliasWorkflowStore(t)
	const workers, perWorker = 4, 6
	runID := func(w, k int) string { return fmt.Sprintf("w%d-%d", w, k) }
	want := make(map[string]string)
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			s := New(reg)
			doc, _ := aliasRunDoc(wf, runID(w, k))
			if _, err := s.Ingest("wf", doc); err != nil {
				t.Fatal(err)
			}
			want[runID(w, k)] = runFingerprint(t, s, runID(w, k))
		}
	}

	s := New(reg)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				doc, nd := aliasRunDoc(wf, runID(w, k))
				var err error
				switch (w + k) % 3 {
				case 0:
					_, err = s.Ingest("wf", doc)
				case 1:
					_, err = s.IngestNDJSON("wf", &scribbleReader{data: nd})
				default:
					_, err = s.IngestBatch("wf", [][]byte{doc})
				}
				for i := range doc {
					doc[i] = '#'
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id, fp := range want {
		if got := runFingerprint(t, s, id); got != fp {
			t.Fatalf("run %s differs after concurrent ingest:\n got: %.300s\nwant: %.300s", id, got, fp)
		}
	}
}
