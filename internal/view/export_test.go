package view

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wolves/internal/workflow"
)

// jsonView is the JSON shape of a view, under the names encoding/json
// prints in the type errors the decoder reproduces.
type jsonView struct {
	Name       string          `json:"name"`
	Workflow   string          `json:"workflow"`
	Composites []jsonComposite `json:"composites"`
}

type jsonComposite struct {
	ID      string   `json:"id"`
	Name    string   `json:"name,omitempty"`
	Members []string `json:"members"`
}

// MarshalReference is the encoding/json encode MarshalJSON replaced,
// kept as the reference it is pinned to.
func MarshalReference(v *View) ([]byte, error) {
	jv := jsonView{Name: v.name, Workflow: v.wf.Name()}
	for i := range v.comps {
		c := &v.comps[i]
		jc := jsonComposite{ID: c.ID, Members: v.MemberIDs(i)}
		if c.Name != c.ID {
			jc.Name = c.Name
		}
		jv.Composites = append(jv.Composites, jc)
	}
	return json.Marshal(jv)
}

// DecodeReference is the encoding/json decode DecodeBytes replaced, kept
// as the reference it is pinned to (json_ref_test.go): json.Decoder with
// DisallowUnknownFields into jsonView, then a Builder. It lives in the
// package so encoding/json's type errors name the real shapes.
func DecodeReference(wf *workflow.Workflow, data []byte) (*View, error) {
	var jv jsonView
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jv); err != nil {
		return nil, fmt.Errorf("view: decode: %w", err)
	}
	if jv.Workflow != "" && jv.Workflow != wf.Name() {
		return nil, fmt.Errorf("view: file targets workflow %q, got %q", jv.Workflow, wf.Name())
	}
	b := NewBuilder(wf, jv.Name)
	for _, c := range jv.Composites {
		b.Assign(c.ID, c.Members...)
		if c.Name != "" {
			b.Named(c.ID, c.Name)
		}
	}
	return b.Build()
}
