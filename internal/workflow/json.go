package workflow

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"wolves/internal/jsonwire"
)

// MarshalJSON encodes the workflow in a stable, human-editable format:
// {"name", "tasks": [{"id", "name" unless it is the ID, "kind" unless
// empty}], "edges": [[from, to], …] in Edges order, or null}. The bytes
// are json.Marshal's of that shape (the tests pin them to it), appended
// to one buffer with no value per task or edge.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	size := 48 + len(w.name)
	for u, t := range w.tasks {
		// The task's entry, plus its ID once per edge it ends.
		size += 32 + len(t.ID) + len(t.Name) + len(t.Kind) +
			w.g.OutDeg(u)*(8+len(t.ID)) + w.g.InDeg(u)*len(t.ID)
	}
	b := append(make([]byte, 0, size), `{"name":`...)
	b = jsonwire.AppendString(b, w.name)
	b = append(b, `,"tasks":`...)
	if len(w.tasks) == 0 {
		b = append(b, "null"...)
	} else {
		sep := byte('[')
		for _, t := range w.tasks {
			b = jsonwire.AppendString(append(append(b, sep), `{"id":`...), t.ID)
			sep = ','
			if t.Name != t.ID && t.Name != "" {
				b = jsonwire.AppendString(append(b, `,"name":`...), t.Name)
			}
			if t.Kind != "" {
				b = jsonwire.AppendString(append(b, `,"kind":`...), t.Kind)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"edges":`...)
	if w.g.M() == 0 {
		b = append(b, "null"...)
	} else {
		sep := byte('[')
		for u := 0; u < w.g.N(); u++ {
			for _, v := range w.g.Succs(u) {
				b = jsonwire.AppendString(append(b, sep, '['), w.tasks[u].ID)
				b = jsonwire.AppendString(append(b, ','), w.tasks[v].ID)
				b = append(b, ']')
				sep = ','
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// EncodeJSON writes the workflow as indented JSON.
func (w *Workflow) EncodeJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}

// DecodeJSON reads r to its end and decodes the first JSON value in it
// as DecodeBytes does. Unlike a json.Decoder, which returns once the
// value closes, it waits for EOF: r must end after the document (a
// pipe or connection left open blocks it), and bytes after the value
// are read and ignored. A read error that cuts the value short is
// returned in place of the truncation error.
func DecodeJSON(r io.Reader) (*Workflow, error) {
	sc := decodePool.Get().(*decodeScratch)
	defer func() { decodePool.Put(sc.release()) }()
	body, rerr := jsonwire.ReadAll(sc.body[:0], r)
	sc.body = body
	return sc.decode(body, rerr)
}

// DecodeBytes decodes and validates a workflow document. It accepts and
// rejects exactly what json.Decoder with DisallowUnknownFields accepts
// into jsonWorkflow followed by a Builder (the reference the tests pin
// it to), with the same messages; bytes after the first JSON value are
// ignored, as that Decoder ignores them. The workflow keeps no
// reference to data: its name and every task's ID, name and kind are
// copied into one string, edge endpoints resolve against the task index
// straight from the decoder's buffer, and the task index and the
// dependency graph are built in bulk, so a decode allocates a fixed
// number of objects whatever the workflow's size.
func DecodeBytes(data []byte) (*Workflow, error) {
	sc := decodePool.Get().(*decodeScratch)
	defer func() { decodePool.Put(sc.release()) }()
	return sc.decode(data, nil)
}

// wireTask and wireWorkflow are the span forms of jsonTask and
// jsonWorkflow: each string a span of the decode arena.
type wireTask struct {
	ID, Name, Kind jsonwire.Span
}

type wireWorkflow struct {
	Name  jsonwire.Span
	Tasks []wireTask
	Edges [][2]jsonwire.Span
}

// decodeScratch is the pooled working set of one decode: the decoder,
// the wire workflow and its arena, the resolved edge list, and the body
// DecodeJSON reads into.
type decodeScratch struct {
	d     jsonwire.Decoder
	w     wireWorkflow
	arena []byte
	edges []int32
	body  []byte
}

var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// release prepares sc for the pool: the decoder drops the body it read,
// and every byte buffer or slice an outsized document grew past
// jsonwire.ScratchKeep or jsonwire.SliceKeep goes. The rest keeps its
// capacity, emptied for the next document.
func (sc *decodeScratch) release() *decodeScratch {
	sc.w = wireWorkflow{Tasks: jsonwire.Reuse(sc.w.Tasks), Edges: jsonwire.Reuse(sc.w.Edges)}
	sc.edges = jsonwire.Reuse(sc.edges)
	sc.d.Release()
	sc.arena, sc.body = jsonwire.Keep(sc.arena), jsonwire.Keep(sc.body)
	return sc
}

// decode decodes data, which a read that failed with rerr (if non-nil)
// may have cut short, and builds the workflow.
func (sc *decodeScratch) decode(data []byte, rerr error) (*Workflow, error) {
	sc.arena = slices.Grow(sc.arena, len(data)) // no string outgrows its document
	if err := sc.d.Value(data, &sc.arena, sc.value); err != nil {
		if rerr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			err = rerr // the value was cut short by the read, not by its writer
		}
		return nil, fmt.Errorf("workflow: decode: %w", err)
	}
	return sc.build()
}

// The JSON field names of jsonWorkflow and jsonTask, in Fields order,
// and the decode targets encoding/json names in its type errors.
var (
	workflowFields = []string{"name", "tasks", "edges"}
	taskFields     = []string{"id", "name", "kind"}

	workflowTarget = jsonwire.Field{Type: "workflow.jsonWorkflow"}
	nameTarget     = jsonwire.Field{Struct: "jsonWorkflow", Path: "name", Type: "string"}
	tasksTarget    = jsonwire.Field{Struct: "jsonWorkflow", Path: "tasks", Type: "[]workflow.jsonTask"}
	taskTarget     = jsonwire.Field{Struct: "jsonWorkflow", Path: "tasks", Type: "workflow.jsonTask"}
	taskTargets    = [3]jsonwire.Field{
		{Struct: "jsonTask", Path: "tasks.id", Type: "string"},
		{Struct: "jsonTask", Path: "tasks.name", Type: "string"},
		{Struct: "jsonTask", Path: "tasks.kind", Type: "string"},
	}
	edgesTarget    = jsonwire.Field{Struct: "jsonWorkflow", Path: "edges", Type: "[][2]string"}
	edgeTarget     = jsonwire.Field{Struct: "jsonWorkflow", Path: "edges", Type: "[2]string"}
	endpointTarget = jsonwire.Field{Struct: "jsonWorkflow", Path: "edges", Type: "string"}
)

// value decodes the top-level value, whose first byte is c, into sc.w.
func (sc *decodeScratch) value(c byte) error {
	d, w := &sc.d, &sc.w
	switch c {
	case 'n':
		return d.Literal("null")
	case '{':
	default:
		return workflowTarget.Mismatch(c)
	}
	return d.Fields(workflowFields, func(i int) error {
		switch i {
		case 0:
			return d.String(&w.Name, &nameTarget)
		case 1:
			return jsonwire.Slice(d, &w.Tasks, nil, &tasksTarget, func(t *wireTask) error {
				if c, _ := d.Peek(); c != '{' {
					return taskTarget.Mismatch(c)
				}
				return d.Fields(taskFields, func(j int) error {
					return d.String(t.field(j), &taskTargets[j])
				})
			})
		default:
			return jsonwire.Slice(d, &w.Edges, nil, &edgesTarget, func(e *[2]jsonwire.Span) error {
				return d.Pair(e, &edgeTarget, &endpointTarget)
			})
		}
	})
}

// field returns the span of the task's j-th field in taskFields order.
func (t *wireTask) field(j int) *jsonwire.Span {
	switch j {
	case 0:
		return &t.ID
	case 1:
		return &t.Name
	}
	return &t.Kind
}

// build validates the decoded document and freezes the workflow through
// the constructor Builder.Build uses, failing exactly where the Builder
// fed the same strings would.
func (sc *decodeScratch) build() (*Workflow, error) {
	w, a := &sc.w, sc.arena
	size := w.Name.Len()
	for i := range w.Tasks {
		t := &w.Tasks[i]
		size += t.ID.Len() + t.Name.Len() + t.Kind.Len()
	}
	var sb strings.Builder
	sb.Grow(size)
	put := func(s jsonwire.Span) { sb.Write(a[s.Off:s.End]) }
	put(w.Name)
	for i := range w.Tasks {
		t := &w.Tasks[i]
		put(t.ID)
		put(t.Name)
		put(t.Kind)
	}
	all, off := sb.String(), 0
	next := func(s jsonwire.Span) string {
		off += s.Len()
		return all[off-s.Len() : off]
	}
	name := next(w.Name)
	tasks := make([]Task, len(w.Tasks))
	for i := range w.Tasks {
		t := &w.Tasks[i]
		tasks[i] = Task{ID: next(t.ID), Name: next(t.Name), Kind: next(t.Kind)}
		if tasks[i].Name == "" {
			tasks[i].Name = tasks[i].ID
		}
	}
	wf, err := newWorkflow(name, tasks)
	if err != nil {
		return nil, err
	}
	edges := slices.Grow(sc.edges[:0], 2*len(w.Edges))
	for _, e := range w.Edges {
		from, to := a[e[0].Off:e[0].End], a[e[1].Off:e[1].End]
		u, uok := wf.IndexBytes(from)
		v, vok := wf.IndexBytes(to)
		if err := checkEdge(from, to, u, v, uok, vok); err != nil {
			return nil, err
		}
		edges = append(edges, int32(u), int32(v))
	}
	sc.edges = edges
	return wf.freeze(edges)
}
