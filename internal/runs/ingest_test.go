package runs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/workflow"
)

// TestIngestEdgeCases pins the satellite requirement: every malformed
// trace maps to a typed engine.Error with code ErrInvalidTrace (the
// daemon's 422), never a panic and never an internal error.
func TestIngestEdgeCases(t *testing.T) {
	s, _ := figure1Store(t)
	cases := []struct {
		name string
		doc  string
		want string // substring of the message
	}{
		{"malformed json", `{"run":`, "malformed"},
		{"missing run id", `{"artifacts":[{"id":"a","generated_by":"1"}]}`, "missing run id"},
		{"empty run", `{"run":"r"}`, "empty"},
		{"unknown task implicit", `{"run":"r","artifacts":[{"id":"a","generated_by":"ghost"}]}`, "unknown task"},
		{"unknown task invocation", `{"run":"r","invocations":[{"id":"i1","task":"ghost"}],"artifacts":[{"id":"a","generated_by":"i1"}]}`, "unknown task"},
		{"empty invocation id", `{"run":"r","invocations":[{"id":"","task":"1"}]}`, "empty id"},
		{"duplicate invocation", `{"run":"r","invocations":[{"id":"i1","task":"1"},{"id":"i1","task":"2"}]}`, "duplicate invocation"},
		{"empty artifact id", `{"run":"r","artifacts":[{"id":"","generated_by":"1"}]}`, "empty id"},
		{"duplicate artifact", `{"run":"r","artifacts":[{"id":"a","generated_by":"1"},{"id":"a","generated_by":"2"}]}`, "duplicate artifact"},
		{"unknown invocation ref", `{"run":"r","invocations":[{"id":"i1","task":"1"}],"artifacts":[{"id":"a","generated_by":"i9"}]}`, "unknown invocation"},
		{"dangling used edge", `{"run":"r","artifacts":[{"id":"a","generated_by":"1"}],"used":[{"process":"2","artifact":"ghost"}]}`, "dangling used edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.IngestCtx(context.Background(), "phylo", []byte(tc.doc))
			if err == nil {
				t.Fatal("ingestion must fail")
			}
			if !engine.IsCode(err, engine.ErrInvalidTrace) {
				t.Fatalf("want invalid_trace, got %v", err)
			}
			var ee *engine.Error
			if !errors.As(err, &ee) || !strings.Contains(ee.Message, tc.want) {
				t.Fatalf("message %q must contain %q", ee.Message, tc.want)
			}
		})
	}

	// Unknown-task causes keep the workflow sentinel reachable.
	_, err := s.IngestCtx(context.Background(), "phylo", []byte(`{"run":"r","artifacts":[{"id":"a","generated_by":"ghost"}]}`))
	if !errors.Is(err, workflow.ErrUnknownTask) {
		t.Fatalf("unknown-task ingestion must wrap workflow.ErrUnknownTask: %v", err)
	}

	// Unknown workflow is a 404-class error, not invalid_trace.
	if _, err := s.IngestCtx(context.Background(), "ghost", figure1RunDoc("r")); !engine.IsCode(err, engine.ErrUnknownWorkflow) {
		t.Fatalf("unknown workflow: %v", err)
	}

	// Nothing above may have been ingested.
	if infos, _ := s.Runs("phylo"); len(infos) != 0 {
		t.Fatalf("failed ingestions must leave no runs: %+v", infos)
	}
}

// TestNDJSONEdgeCases covers stream-specific failures, in particular the
// torn final line of an interrupted upload.
func TestNDJSONEdgeCases(t *testing.T) {
	s, _ := figure1Store(t)
	cases := []struct {
		name   string
		stream string
		want   string
	}{
		{"torn final line",
			"{\"run\":\"r\"}\n{\"artifact\":{\"id\":\"a\",\"generated_by\":\"1\"}}\n{\"artifact\":{\"id\":\"b\",\"gen",
			"torn record"},
		{"malformed mid-stream line",
			"{\"run\":\"r\"}\nnot json\n{\"artifact\":{\"id\":\"a\",\"generated_by\":\"1\"}}\n",
			"line 2"},
		{"empty record",
			"{\"run\":\"r\"}\n{}\n",
			"declares none"},
		{"conflicting run ids",
			"{\"run\":\"r\"}\n{\"run\":\"other\"}\n",
			"conflicts"},
		{"empty stream", "", "missing run id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.IngestNDJSONCtx(context.Background(), "phylo", strings.NewReader(tc.stream))
			if err == nil {
				t.Fatal("ingestion must fail")
			}
			if !engine.IsCode(err, engine.ErrInvalidTrace) {
				t.Fatalf("want invalid_trace, got %v", err)
			}
			var ee *engine.Error
			if !errors.As(err, &ee) || !strings.Contains(ee.Message, tc.want) {
				t.Fatalf("message %q must contain %q", ee.Message, tc.want)
			}
		})
	}

	// A final line terminated by EOF (no trailing newline) but carrying
	// complete JSON is fine — only genuinely torn records reject.
	info, err := s.IngestNDJSONCtx(context.Background(), "phylo", strings.NewReader(
		"{\"run\":\"ok\"}\n{\"artifact\":{\"id\":\"a\",\"generated_by\":\"1\"}}"))
	if err != nil || info.Artifacts != 1 {
		t.Fatalf("unterminated-but-complete final line: %+v, %v", info, err)
	}
}

// TestNDJSONLineCap pins the pooled line buffer's framing limits: a
// single line longer than MaxNDJSONLineBytes rejects the whole stream
// with a typed bad_input (the daemon's 400) before any of it is
// ingested, while a long-but-legal line — larger than the pooled
// bufio buffer, so it exercises the spill path — ingests normally.
func TestNDJSONLineCap(t *testing.T) {
	s, _ := figure1Store(t)

	// One line of MaxNDJSONLineBytes+2 bytes, never newline-terminated.
	// The cap must fire while buffering, long before JSON parsing.
	over := strings.NewReader(strings.Repeat("a", MaxNDJSONLineBytes+2))
	_, err := s.IngestNDJSONCtx(context.Background(), "phylo", over)
	if err == nil {
		t.Fatal("over-long line must reject the stream")
	}
	if !engine.IsCode(err, engine.ErrBadInput) {
		t.Fatalf("want bad_input, got %v", err)
	}
	var ee *engine.Error
	if !errors.As(err, &ee) || !strings.Contains(ee.Message, "line cap") {
		t.Fatalf("message %q must name the line cap", ee.Message)
	}
	if infos, _ := s.Runs("phylo"); len(infos) != 0 {
		t.Fatalf("rejected stream must leave no runs: %+v", infos)
	}

	// A 128KiB run ID overflows the pooled reader's buffer but stays
	// under the cap: the spill path must reassemble it losslessly.
	longID := strings.Repeat("r", 128<<10)
	stream := "{\"run\":\"" + longID + "\"}\n{\"artifact\":{\"id\":\"a\",\"generated_by\":\"1\"}}\n"
	info, err := s.IngestNDJSONCtx(context.Background(), "phylo", strings.NewReader(stream))
	if err != nil {
		t.Fatalf("long-but-legal line: %v", err)
	}
	if info.Run != longID || info.Artifacts != 1 {
		t.Fatalf("spilled line ingested wrong: run len %d, artifacts %d", len(info.Run), info.Artifacts)
	}
}

// TestQueryErrorCodes pins the 404/400-class codes of the query surface.
func TestQueryErrorCodes(t *testing.T) {
	s, _ := figure1Store(t)
	if _, err := s.IngestCtx(context.Background(), "phylo", figure1RunDoc("r1")); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		q    Query
		code engine.Code
	}{
		"unknown run":      {Query{Run: "nope", Artifact: "a8"}, engine.ErrUnknownRun},
		"unknown artifact": {Query{Run: "r1", Artifact: "nope"}, engine.ErrUnknownArtifact},
		"missing artifact": {Query{Run: "r1"}, engine.ErrBadInput},
		"bad level":        {Query{Run: "r1", Artifact: "a8", Level: "huge"}, engine.ErrBadInput},
		"bad direction":    {Query{Run: "r1", Artifact: "a8", Direction: "sideways"}, engine.ErrBadInput},
		"view level needs view": {
			Query{Run: "r1", Artifact: "a8", Level: LevelView}, engine.ErrBadInput},
		"unknown view": {
			Query{Run: "r1", Artifact: "a8", Level: LevelView, View: "nope"}, engine.ErrUnknownView},
		"witness needs ancestors": {
			Query{Run: "r1", Artifact: "a8", Direction: DirDescendants, Witness: true}, engine.ErrBadInput},
	} {
		if _, err := s.LineageCtx(context.Background(), "phylo", tc.q); !engine.IsCode(err, tc.code) {
			t.Fatalf("%s: want %s, got %v", name, tc.code, err)
		}
	}
	if _, err := s.Info("phylo", "nope"); !engine.IsCode(err, engine.ErrUnknownRun) {
		t.Fatalf("info of unknown run: %v", err)
	}
}
