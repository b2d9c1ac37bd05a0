package view

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"wolves/internal/jsonwire"
	"wolves/internal/workflow"
)

// MarshalJSON encodes the view in a stable format: {"name", "workflow",
// "composites": [{"id", "name" unless it is the ID, "members": [task
// IDs, ascending by index]}]}. The bytes are json.Marshal's of that
// shape (the tests pin them to it), appended to one buffer with no
// value per composite or member.
func (v *View) MarshalJSON() ([]byte, error) {
	size := 64 + len(v.name) + len(v.wf.Name())
	for i := range v.comps {
		c := &v.comps[i]
		size += 32 + len(c.ID) + len(c.Name)
		for _, t := range c.members {
			size += 3 + len(v.wf.Task(t).ID)
		}
	}
	b := append(make([]byte, 0, size), `{"name":`...)
	b = jsonwire.AppendString(b, v.name)
	b = jsonwire.AppendString(append(b, `,"workflow":`...), v.wf.Name())
	b = append(b, `,"composites":`...)
	if len(v.comps) == 0 {
		b = append(b, "null"...)
	} else {
		sep := byte('[')
		for i := range v.comps {
			c := &v.comps[i]
			b = jsonwire.AppendString(append(append(b, sep), `{"id":`...), c.ID)
			sep = ','
			if c.Name != c.ID && c.Name != "" {
				b = jsonwire.AppendString(append(b, `,"name":`...), c.Name)
			}
			b = append(b, `,"members":`...)
			msep := byte('[')
			for _, t := range c.members {
				b = jsonwire.AppendString(append(b, msep), v.wf.Task(t).ID)
				msep = ','
			}
			if len(c.members) == 0 {
				b = append(b, '[')
			}
			b = append(b, ']', '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// EncodeJSON writes the view as indented JSON.
func (v *View) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// DecodeJSON reads r to its end and decodes the first JSON value in it
// as a view over wf, as DecodeBytes does. Like workflow.DecodeJSON, it
// waits for EOF: r must end after the document, and a read error that
// cuts the value short is returned in place of the truncation error.
func DecodeJSON(wf *workflow.Workflow, r io.Reader) (*View, error) {
	sc := decodePool.Get().(*decodeScratch)
	defer func() { decodePool.Put(sc.release()) }()
	body, rerr := jsonwire.ReadAll(sc.body[:0], r)
	sc.body = body
	return sc.decode(wf, body, rerr)
}

// DecodeBytes decodes a view document over wf and validates the
// partition. It accepts and rejects exactly what json.Decoder with
// DisallowUnknownFields accepts into jsonView followed by a Builder (the
// reference the tests pin it to), with the same messages: composites
// sharing an ID merge, as Builder.Assign merges them. Bytes after the
// first JSON value are ignored. The view keeps no reference to data:
// its name and the composites' IDs and names are copied into one
// string, members resolve through wf.IndexBytes straight from the
// decoder's buffer into one slab, so a decode allocates a fixed number
// of objects (plus the composite index's hash tables, one per thousand
// composites) whatever the view's size.
func DecodeBytes(wf *workflow.Workflow, data []byte) (*View, error) {
	sc := decodePool.Get().(*decodeScratch)
	defer func() { decodePool.Put(sc.release()) }()
	return sc.decode(wf, data, nil)
}

// wireComposite and wireView are the span forms of jsonComposite and
// jsonView: each string a span of the decode arena.
type wireComposite struct {
	ID, Name jsonwire.Span
	Members  []jsonwire.Span
}

type wireView struct {
	Name, Workflow jsonwire.Span
	Composites     []wireComposite
}

// decodeScratch is the pooled working set of one decode: the decoder,
// the wire view, its arena and the slab its member lists are carved
// from, the merge of composites sharing an ID (ids, with heads and
// tails of the per-composite chains of entries through next), and the
// body DecodeJSON reads into.
type decodeScratch struct {
	d            jsonwire.Decoder
	w            wireView
	arena        []byte
	members      []jsonwire.Span
	ids          map[string]int
	heads, tails []int32
	next         []int32
	body         []byte
}

var decodePool = sync.Pool{New: func() any { return &decodeScratch{ids: make(map[string]int)} }}

// idsKeep caps the composite IDs the pooled ID map may have held: a map
// never shrinks, and one this large spans about jsonwire.ScratchKeep
// bytes.
const idsKeep = jsonwire.ScratchKeep / 32

// release prepares sc for the pool: the decoder drops the body it read,
// the ID map its keys (slices of the decoded view's string), and every
// byte buffer, slice or map an outsized document grew past
// jsonwire.ScratchKeep, jsonwire.SliceKeep or idsKeep goes. The rest
// keeps its capacity, emptied for the next document.
func (sc *decodeScratch) release() *decodeScratch {
	sc.w = wireView{Composites: jsonwire.Reuse(sc.w.Composites)}
	sc.members = jsonwire.Reuse(sc.members)
	sc.heads, sc.tails, sc.next = jsonwire.Reuse(sc.heads), jsonwire.Reuse(sc.tails), jsonwire.Reuse(sc.next)
	sc.d.Release()
	if len(sc.ids) > idsKeep {
		sc.ids = make(map[string]int)
	} else {
		clear(sc.ids)
	}
	sc.arena, sc.body = jsonwire.Keep(sc.arena), jsonwire.Keep(sc.body)
	return sc
}

// decode decodes data, which a read that failed with rerr (if non-nil)
// may have cut short, and builds the view over wf.
func (sc *decodeScratch) decode(wf *workflow.Workflow, data []byte, rerr error) (*View, error) {
	sc.arena = slices.Grow(sc.arena, len(data)) // no string outgrows its document
	if err := sc.d.Value(data, &sc.arena, sc.value); err != nil {
		if rerr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			err = rerr // the value was cut short by the read, not by its writer
		}
		return nil, fmt.Errorf("view: decode: %w", err)
	}
	return sc.build(wf)
}

// The JSON field names of jsonView and jsonComposite, in Fields order,
// and the decode targets encoding/json names in its type errors.
var (
	viewFields      = []string{"name", "workflow", "composites"}
	compositeFields = []string{"id", "name", "members"}

	viewTarget       = jsonwire.Field{Type: "view.jsonView"}
	viewTargets      = [2]jsonwire.Field{{Struct: "jsonView", Path: "name", Type: "string"}, {Struct: "jsonView", Path: "workflow", Type: "string"}}
	compositesTarget = jsonwire.Field{Struct: "jsonView", Path: "composites", Type: "[]view.jsonComposite"}
	compositeTarget  = jsonwire.Field{Struct: "jsonView", Path: "composites", Type: "view.jsonComposite"}
	compositeTargets = [2]jsonwire.Field{
		{Struct: "jsonComposite", Path: "composites.id", Type: "string"},
		{Struct: "jsonComposite", Path: "composites.name", Type: "string"},
	}
	membersTarget = jsonwire.Field{Struct: "jsonComposite", Path: "composites.members", Type: "[]string"}
	memberTarget  = jsonwire.Field{Struct: "jsonComposite", Path: "composites.members", Type: "string"}
)

// value decodes the top-level value, whose first byte is c, into sc.w.
func (sc *decodeScratch) value(c byte) error {
	d, w := &sc.d, &sc.w
	switch c {
	case 'n':
		return d.Literal("null")
	case '{':
	default:
		return viewTarget.Mismatch(c)
	}
	return d.Fields(viewFields, func(i int) error {
		switch i {
		case 0:
			return d.String(&w.Name, &viewTargets[0])
		case 1:
			return d.String(&w.Workflow, &viewTargets[1])
		}
		return jsonwire.Slice(d, &w.Composites, nil, &compositesTarget, func(c *wireComposite) error {
			if b, _ := d.Peek(); b != '{' {
				return compositeTarget.Mismatch(b)
			}
			return d.Fields(compositeFields, func(j int) error {
				switch j {
				case 0:
					return d.String(&c.ID, &compositeTargets[0])
				case 1:
					return d.String(&c.Name, &compositeTargets[1])
				}
				return jsonwire.Slice(d, &c.Members, &sc.members, &membersTarget, func(m *jsonwire.Span) error {
					return d.String(m, &memberTarget)
				})
			})
		})
	})
}

// build validates the decoded document against wf and freezes the view
// through the constructor Builder.Build uses, failing exactly where the
// Builder fed the same strings would.
func (sc *decodeScratch) build(wf *workflow.Workflow) (*View, error) {
	w, a := &sc.w, sc.arena
	bytesOf := func(s jsonwire.Span) []byte { return a[s.Off:s.End] }
	if w.Workflow.Len() > 0 && string(bytesOf(w.Workflow)) != wf.Name() {
		return nil, fmt.Errorf("view: file targets workflow %q, got %q", bytesOf(w.Workflow), wf.Name())
	}
	size, members := w.Name.Len(), 0
	for i := range w.Composites {
		c := &w.Composites[i]
		size += c.ID.Len() + c.Name.Len()
		members += len(c.Members)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.Write(bytesOf(w.Name))
	for i := range w.Composites {
		sb.Write(bytesOf(w.Composites[i].ID))
		sb.Write(bytesOf(w.Composites[i].Name))
	}
	all, off := sb.String(), 0
	next := func(s jsonwire.Span) string {
		off += s.Len()
		return all[off-s.Len() : off]
	}
	name := next(w.Name)

	// Merge entries sharing an ID, as Builder.Assign does: the first
	// fixes the composite's place, members accumulate in document order
	// (entries chain through sc.next), and the last non-empty name wins.
	comps := make([]Composite, 0, len(w.Composites))
	sc.heads = slices.Grow(sc.heads, len(w.Composites))
	sc.tails = slices.Grow(sc.tails, len(w.Composites))
	sc.next = slices.Grow(sc.next, len(w.Composites))
	for e := range w.Composites {
		id, cname := next(w.Composites[e].ID), next(w.Composites[e].Name)
		sc.next = append(sc.next, -1)
		ci, seen := sc.ids[id]
		if !seen {
			ci = len(comps)
			sc.ids[id] = ci
			comps = append(comps, Composite{ID: id, Name: id})
			sc.heads = append(sc.heads, int32(e))
			sc.tails = append(sc.tails, int32(e))
		} else {
			sc.next[sc.tails[ci]] = int32(e)
			sc.tails[ci] = int32(e)
		}
		if cname != "" {
			comps[ci].Name = cname
		}
	}
	slab := make([]int, 0, members)
	for ci := range comps {
		lo := len(slab)
		for e := sc.heads[ci]; e >= 0; e = sc.next[e] {
			for _, m := range w.Composites[e].Members {
				t, ok := wf.IndexBytes(bytesOf(m))
				if !ok {
					t = unknownMember
				}
				slab = append(slab, t)
			}
		}
		comps[ci].members = slab[lo:len(slab):len(slab)]
	}
	return assemble(wf, name, comps, func(c *Composite, j int) string {
		for e := sc.heads[sc.ids[c.ID]]; ; e = sc.next[e] {
			ms := w.Composites[e].Members
			if j < len(ms) {
				return string(bytesOf(ms[j]))
			}
			j -= len(ms)
		}
	})
}
