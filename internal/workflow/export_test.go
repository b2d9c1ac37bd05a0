package workflow

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// jsonWorkflow is the JSON shape of a workflow specification, under
// the names encoding/json prints in the type errors the decoder
// reproduces.
type jsonWorkflow struct {
	Name  string      `json:"name"`
	Tasks []jsonTask  `json:"tasks"`
	Edges [][2]string `json:"edges"`
}

type jsonTask struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// MarshalReference is the encoding/json encode MarshalJSON replaced,
// kept as the reference it is pinned to.
func MarshalReference(w *Workflow) ([]byte, error) {
	jw := jsonWorkflow{Name: w.name, Edges: w.Edges()}
	for _, t := range w.tasks {
		jt := jsonTask{ID: t.ID, Kind: t.Kind}
		if t.Name != t.ID {
			jt.Name = t.Name
		}
		jw.Tasks = append(jw.Tasks, jt)
	}
	return json.Marshal(jw)
}

// DecodeReference is the encoding/json decode DecodeBytes replaced, kept
// as the reference it is pinned to (json_ref_test.go): json.Decoder with
// DisallowUnknownFields into jsonWorkflow, then a Builder. It lives in
// the package so encoding/json's type errors name the real shapes.
func DecodeReference(data []byte) (*Workflow, error) {
	var jw jsonWorkflow
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jw); err != nil {
		return nil, fmt.Errorf("workflow: decode: %w", err)
	}
	b := NewBuilder(jw.Name)
	for _, t := range jw.Tasks {
		opts := []TaskOption{}
		if t.Name != "" {
			opts = append(opts, WithName(t.Name))
		}
		if t.Kind != "" {
			opts = append(opts, WithKind(t.Kind))
		}
		b.AddTask(t.ID, opts...)
	}
	for _, e := range jw.Edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
