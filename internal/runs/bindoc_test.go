package runs

import (
	"context"
	"testing"
)

// TestBinaryDocRoundTrip pins the binary canonical run document: an
// ingested run's canonical bytes open with the docBinV1 tag, decode
// back to the exact normalized wire content, and restore through
// RestoreRun to a store that answers lineage identically — while a
// JSON-era canonical document restores verbatim.
func TestBinaryDocRoundTrip(t *testing.T) {
	s, reg := figure1Store(t)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	ids, docs := s.SnapshotRuns("phylo")
	if len(ids) != 1 || ids[0] != "r1" {
		t.Fatalf("snapshot runs: %v", ids)
	}
	doc := docs[0]
	if len(doc) == 0 || doc[0] != docBinV1 {
		t.Fatalf("canonical doc opens 0x%02x, want 0x%02x", doc[0], docBinV1)
	}

	// Decode the binary document and compare with the wire shape the
	// original JSON decodes to: same run, invocations materialized in
	// the same dense order, same artifact producers and used edges.
	var sc ingestScratch
	var bin, jsn wireRun
	if err := sc.decodeDoc(&bin, doc); err != nil {
		t.Fatal(err)
	}
	if err := sc.decodeDoc(&jsn, figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	fromBin, fromJSON := bin.strings(), jsn.strings()
	if fromBin.Run != "r1" {
		t.Fatalf("run id = %q", fromBin.Run)
	}
	if len(fromBin.Artifacts) != len(fromJSON.Artifacts) || len(fromBin.Used) != len(fromJSON.Used) {
		t.Fatalf("shape diverges: %d/%d artifacts, %d/%d used",
			len(fromBin.Artifacts), len(fromJSON.Artifacts), len(fromBin.Used), len(fromJSON.Used))
	}
	// The JSON wire form may use implicit invocations (artifact
	// generated_by naming a task); the binary form always carries them
	// materialized, so compare artifacts by ID set and producer task.
	for i, a := range fromBin.Artifacts {
		if a.ID != fromJSON.Artifacts[i].ID {
			t.Fatalf("artifact %d: %q vs %q", i, a.ID, fromJSON.Artifacts[i].ID)
		}
	}

	// Restoring the binary doc into a fresh store must answer lineage
	// exactly like the original.
	s2 := New(reg)
	if err := s2.RestoreRun("phylo", ids[0], doc); err != nil {
		t.Fatal(err)
	}
	q := Query{Run: "r1", Artifact: "a8", Witness: true}
	want, err := s.LineageCtx(context.Background(), "phylo", q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.LineageCtx(context.Background(), "phylo", q)
	if err != nil {
		t.Fatal(err)
	}
	wb := want.AppendJSON(nil)
	gb := got.AppendJSON(nil)
	want.Release()
	got.Release()
	if string(wb) != string(gb) {
		t.Fatalf("lineage diverges after binary restore:\n got: %s\nwant: %s", gb, wb)
	}

	// A restored store re-emits the identical canonical bytes.
	_, docs2 := s2.SnapshotRuns("phylo")
	if len(docs2) != 1 || string(docs2[0]) != string(doc) {
		t.Fatal("binary doc did not survive restore byte-identically")
	}

	// Truncations of the binary doc must reject, never panic.
	for cut := 1; cut < len(doc); cut++ {
		if err := sc.decodeDoc(sc.wire(), doc[:cut]); err == nil {
			t.Fatalf("doc truncated to %d bytes decoded clean", cut)
		}
	}

	// A JSON-era canonical document restores verbatim: it stays JSON.
	s3 := New(reg)
	if err := s3.RestoreRun("phylo", "r1", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	_, jdocs := s3.SnapshotRuns("phylo")
	if len(jdocs) != 1 || string(jdocs[0]) != string(figure1RunDoc("r1")) {
		t.Fatalf("JSON-era canonical doc was not retained verbatim")
	}
}
