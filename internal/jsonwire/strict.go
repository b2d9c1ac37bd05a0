package jsonwire

import "fmt"

// This file holds the typed half of Value mode: the helpers a document
// shape decodes its fields with when it must reject exactly what
// json.Decoder with DisallowUnknownFields rejects, with the same
// messages.

// semanticError is a type or unknown-field error: one that a syntax
// error anywhere in the value beats (see Value).
type semanticError struct{ msg string }

func (e *semanticError) Error() string { return e.msg }

// Field names a decode target the way encoding/json's type errors do:
// the innermost struct's Go name, the dotted path of JSON field names
// from the document root, and the Go type expected there. A Field with
// an empty Struct names the top-level value.
type Field struct{ Struct, Path, Type string }

// Mismatch is encoding/json's *UnmarshalTypeError message for a value
// starting with byte c decoded into f.
func (f *Field) Mismatch(c byte) error {
	if f.Struct == "" {
		return &semanticError{fmt.Sprintf("json: cannot unmarshal %s into Go value of type %s", kind(c), f.Type)}
	}
	return &semanticError{fmt.Sprintf("json: cannot unmarshal %s into Go struct field %s.%s of type %s", kind(c), f.Struct, f.Path, f.Type)}
}

// kind names the JSON kind of the value starting with c, as
// encoding/json's type errors do.
func kind(c byte) string {
	switch c {
	case '"':
		return "string"
	case '{':
		return "object"
	case '[':
		return "array"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// Fields decodes the object at the cursor as encoding/json decodes a
// struct with DisallowUnknownFields: field is called with the index in
// names (lower-case ASCII JSON names) of each key's field — an exact
// match first, else a case-folded one — with the cursor on its value;
// any other key is an error.
func (d *Decoder) Fields(names []string, field func(i int) error) error {
	return d.Object(func(key []byte) error {
		for i, n := range names {
			if string(key) == n {
				return field(i)
			}
		}
		for i, n := range names {
			if FoldedEq(key, n) {
				return field(i)
			}
		}
		return &semanticError{fmt.Sprintf("json: unknown field %q", key)}
	})
}

// String decodes the value at the cursor into the string target f:
// a string is appended to the arena and *s points at it, null leaves
// *s unchanged, anything else is f's type error.
func (d *Decoder) String(s *Span, f *Field) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.Literal("null")
	case '"':
		return d.str(s)
	default:
		return f.Mismatch(c)
	}
}

// Slice decodes the value at the cursor into the slice target f with
// encoding/json's slice semantics (see elements), calling elem on each
// element that is not null; a non-nil slab supplies the backing arrays
// (see carve). Null empties the slice but keeps its backing array,
// cleared, for the pool; anything but an array is f's type error.
func Slice[T any](d *Decoder, sp, slab *[]T, f *Field, elem func(*T) error) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		clear((*sp)[:cap(*sp)])
		*sp = (*sp)[:0]
		return d.Literal("null")
	case '[':
		return elements(d, sp, slab, elem)
	default:
		return f.Mismatch(c)
	}
}

// Pair decodes the value at the cursor into a Go [2]string target f:
// the first two elements decode as strings (elem names their type for
// errors), further ones are skipped unchecked, missing ones are zeroed;
// null leaves *p unchanged.
func (d *Decoder) Pair(p *[2]Span, f, elem *Field) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.Literal("null")
	case '[':
	default:
		return f.Mismatch(c)
	}
	n := 0
	if err := d.array(func() error {
		if n >= len(p) {
			n++
			return d.SkipValue()
		}
		n++
		return d.String(&p[n-1], elem)
	}); err != nil {
		return err
	}
	for ; n < len(p); n++ {
		p[n] = Span{}
	}
	return nil
}
