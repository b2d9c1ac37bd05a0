// Package jsonwire is the hand-rolled JSON decoder behind every document
// the service reads off the wire: run documents and NDJSON records
// (internal/runs), workflow specifications (internal/workflow) and views
// (internal/view). encoding/json's reflective decoder dominated those
// paths (about 85% of an ingest was json.Unmarshal of the document) and the
// shapes are a handful of small fixed structs, so a purpose-built
// decoder removes the reflection entirely. It materializes no strings:
// every string value is unquoted onto the tail of a caller-owned byte
// arena and recorded as a Span of it, so a document decodes with no
// allocation once a pooled arena and slices have grown to fit.
//
// Behavior is pinned to encoding/json, not merely inspired by it:
// acceptance, rejection and the decoded values agree exactly, including
// the obscure corners — case-folded key matching, duplicate-key merge
// semantics, null as leave-unchanged (but slice- and pointer-clearing),
// lone surrogate replacement, invalid-UTF-8 replacement, and the
// scanner's nesting cap — so swapping decoders is invisible on the wire.
// Two document modes mirror the two encoding/json entry points:
//
//   - Document is json.Unmarshal into a struct: one value, nothing but
//     whitespace after it. Runs decode this way.
//   - Value is json.Decoder.Decode with DisallowUnknownFields: the first
//     value of the input, bytes after it ignored. The whole value is
//     syntax-checked before any field is decoded, as the Decoder's
//     pre-scan does, so a syntax error anywhere wins; after that the
//     first type error (with encoding/json's message, see Field) or
//     unknown field in document order wins. Workflows and views decode
//     this way.
//
// The differential tests and fuzz targets that pin all of this live
// with the package (FuzzJSONDecodeEquivalence here, and one per
// document shape in the packages that own the shapes).
package jsonwire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// MaxDepth mirrors encoding/json's scanner nesting cap: a document may
// hold at most this many open containers at once. Inputs nesting
// deeper are rejected there, so they are rejected here too.
const MaxDepth = 10000

// ScratchKeep caps the capacity of each byte buffer (arena, unquote
// buffer; see Keep) a pool of decoders retains: a rare multi-megabyte
// document must not pin its buffers forever.
const ScratchKeep = 1 << 20

// SliceKeep is ScratchKeep for the decoded slices and slabs a pool
// retains (see Reuse). A slice of spans takes about twice the bytes of
// the text it indexes — an edge's two spans 32 bytes, its JSON about
// 17 — and grows fourfold, so the 49,000 edges of a 4,096-task layered
// workflow fill 1.6 MB of a 4 MiB array: the cap is four times
// ScratchKeep.
const SliceKeep = 4 * ScratchKeep

// errEnd reports input that ends inside a value (json.Unmarshal's
// wording).
var errEnd = errors.New("unexpected end of JSON input")

// Span locates one decoded string in its arena: arena[Off:End].
type Span struct{ Off, End int }

// Len returns the length of the string s stands for.
func (s Span) Len() int { return s.End - s.Off }

// Decoder is the decoder state: input, cursor, open-container depth, a
// scratch buffer backing escaped key decodes (clean keys — no escapes,
// no control bytes, pure ASCII — are sliced zero-copy), and the arena
// that decoded string values are appended to. The zero value is ready
// for use; pooling a Decoder reuses the scratch buffer across
// documents (call Release before putting it back).
type Decoder struct {
	b     []byte
	i     int
	depth int
	buf   []byte
	arena *[]byte
}

// reset points d at input b, appending decoded strings to *arena.
func (d *Decoder) reset(b []byte, arena *[]byte) {
	d.b, d.i, d.depth, d.arena = b, 0, 0, arena
}

// Release prepares d for a pool: it drops d's references to its input
// and arena, and its unquote buffer when a document grew that past
// ScratchKeep.
func (d *Decoder) Release() {
	d.b, d.arena = nil, nil
	if cap(d.buf) > ScratchKeep {
		d.buf = nil
	}
}

// Holds reports what d keeps between documents: whether it still
// references an input or arena, and the capacity of its unquote
// buffer. Pool owners assert with it that Release ran.
func (d *Decoder) Holds() (refs bool, scratch int) {
	return d.b != nil || d.arena != nil, cap(d.buf)
}

// Document decodes b as json.Unmarshal decodes it into a struct: obj is
// called with the cursor on the opening '{' and must consume the
// object; a top-level null is a no-op; anything else, or anything but
// whitespace after the value, is rejected.
func (d *Decoder) Document(b []byte, arena *[]byte, obj func() error) error {
	d.reset(b, arena)
	d.ws()
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		if err := d.Literal("null"); err != nil {
			return err
		}
	case '{':
		if err := obj(); err != nil {
			return err
		}
	default:
		return d.errInvalid(c, "looking for beginning of value")
	}
	d.ws()
	if d.i < len(d.b) {
		return d.errInvalid(d.b[d.i], "after top-level value")
	}
	return nil
}

// Value decodes the first JSON value of b as json.Decoder.Decode does:
// leading whitespace is skipped, input holding none is io.EOF, a value
// cut short is io.ErrUnexpectedEOF, and bytes after the value are never
// looked at. value is called with the cursor on the value's first byte
// c and must consume it, with the typed helpers of strict.go.
//
// json.Decoder syntax-checks the whole value before it decodes a field,
// so a syntax error anywhere beats a type or unknown-field error. Value
// gets the same precedence in one pass for every document that decodes:
// only when value fails with a type or unknown-field error does it scan
// the whole value, and a syntax error found there wins.
func (d *Decoder) Value(b []byte, arena *[]byte, value func(c byte) error) error {
	d.reset(b, arena)
	d.ws()
	if d.i == len(d.b) {
		return io.EOF
	}
	start := d.i
	err := value(d.b[start])
	if _, typed := err.(*semanticError); typed {
		d.i, d.depth = start, 0
		if serr := d.SkipValue(); serr != nil {
			err = serr
		}
	}
	if err == errEnd {
		return io.ErrUnexpectedEOF
	}
	return err
}

// SplitBatch frames a JSON array of documents — the body of a batch
// ingest — into its elements, as sub-slices of body: no element is
// copied, so they live as long as body does. Acceptance matches
// json.Unmarshal of body into []json.RawMessage for an array body: the
// whole of it must be well-formed JSON (nesting cap included) with only
// whitespace after the array, and each element comes back without its
// surrounding whitespace.
func SplitBatch(body []byte) ([][]byte, error) {
	d := Decoder{b: body}
	d.ws()
	c, err := d.Peek()
	if err != nil {
		return nil, err
	}
	if c != '[' {
		return nil, d.errInvalid(c, "looking for the beginning of a batch array")
	}
	docs := make([][]byte, 0, 8)
	if err := d.array(func() error {
		start := d.i
		if err := d.SkipValue(); err != nil {
			return err
		}
		docs = append(docs, body[start:d.i:d.i])
		return nil
	}); err != nil {
		return nil, err
	}
	d.ws()
	if d.i < len(d.b) {
		return nil, d.errInvalid(d.b[d.i], "after top-level value")
	}
	return docs, nil
}

// PointerField decodes an object into *pp with obj: null clears the
// pointer; an object decodes into the existing pointee when the pointer
// is already set (duplicate-key merge, exactly encoding/json's
// indirect() reuse), or else into buf, zeroed, when non-nil, or a fresh
// allocation. elem names the object in errors.
func PointerField[T any](d *Decoder, pp **T, buf *T, obj func(*T) error, elem string) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.Literal("null"); err != nil {
			return err
		}
		*pp = nil
		return nil
	}
	if c != '{' {
		return d.errInvalid(c, "decoding "+elem+" object")
	}
	if *pp == nil {
		if buf == nil {
			buf = new(T)
		} else {
			var zero T
			*buf = zero
		}
		*pp = buf
	}
	return obj(*pp)
}

// ArrayField decodes a JSON array of objects into *sp, each with obj
// (see elements for the slice semantics); null sets the slice nil.
// what and elem name the array and an element in errors.
func ArrayField[T any](d *Decoder, sp *[]T, obj func(*T) error, what, elem string) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.Literal("null"); err != nil {
			return err
		}
		*sp = nil
		return nil
	}
	if c != '[' {
		return d.errInvalid(c, "decoding the "+what+" array")
	}
	return elements(d, sp, nil, func(el *T) error {
		c, err := d.Peek()
		if err != nil {
			return err
		}
		if c != '{' {
			return d.errInvalid(c, "decoding "+elem+" object")
		}
		return obj(el)
	})
}

// elements decodes the array at the cursor into *sp with encoding/json's
// slice semantics, calling elem on each element that is not null:
//   - element i decodes in place into the slot already there, so a
//     duplicate key re-decodes the existing elements (omitted fields
//     keep their values), and growing back over slots that an earlier,
//     longer occurrence of the key left past the length exposes them
//     again, as reflect's SetLen does;
//   - slots past the backing array start zeroed;
//   - a null element leaves its slot as it is;
//   - the result is truncated to the elements read, and an empty array
//     clears the whole backing array, standing for encoding/json's
//     fresh empty slice.
//
// A slice grows fourfold (grow), or, when slab is non-nil, into arrays
// carved from *slab (carve). Either way the capacities differ from
// reflect's, which changes nothing observable: a slice only grows when
// its length has reached its capacity, so every slot past it is zero in
// both. Pooled slices and slabs must be reset with Reuse between
// documents, so nothing from an earlier document can show through.
func elements[T any](d *Decoder, sp *[]T, slab *[]T, elem func(*T) error) error {
	old, n := *sp, 0
	if err := d.array(func() error {
		if n == len(old) {
			switch {
			case n < cap(old):
				old = old[:n+1]
			case slab != nil:
				old = carve(slab, old)
			default:
				old = grow(old)
			}
		}
		c, err := d.Peek()
		if err != nil {
			return err
		}
		if c == 'n' {
			if err := d.Literal("null"); err != nil {
				return err
			}
		} else if err := elem(&old[n]); err != nil {
			return err
		}
		n++
		return nil
	}); err != nil {
		return err
	}
	if n == 0 {
		clear(old[:cap(old)])
		if old == nil {
			old = []T{} // [] decodes to an empty, non-nil slice
		}
	}
	*sp = old[:n]
	return nil
}

// grow returns old grown by one zero element into a new backing array
// of four times its capacity (at least 8): a slice a cold pool hands out
// reaches a document's size in half the allocations doubling would take.
func grow[T any](old []T) []T {
	grown := make([]T, len(old)+1, max(8, 4*cap(old)))
	copy(grown, old)
	return grown
}

// carve returns old grown by one zero element into a new backing array
// of twice its capacity (at least 8) cut from the unused tail of *slab,
// so the many small slices of one document (a view's member lists) cost
// no allocation each. A slab too short for the cut is replaced by a
// larger one; arrays carved before keep the old one.
func carve[T any](slab *[]T, old []T) []T {
	c := max(8, 2*cap(old))
	s := *slab
	if cap(s)-len(s) < c {
		s = make([]T, 0, max(4*cap(s), 64*c))
	}
	lo := len(s)
	s = s[:lo+c]
	*slab = s
	grown := s[lo : lo+c : lo+c]
	copy(grown, old)
	return grown[:len(old)+1]
}

// Reuse returns s emptied for a pool to retain: the form pooled slices
// and slabs decoded by ArrayField and Slice must start each document
// in. Its whole backing array is cleared, past the length too (a
// repeated key re-exposes elements there), so nothing an earlier
// document wrote can show through; an array larger than SliceKeep
// bytes is dropped instead.
func Reuse[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > SliceKeep {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// Keep returns b emptied for a pool to retain, or nil when a document
// grew it past ScratchKeep.
func Keep(b []byte) []byte {
	if cap(b) > ScratchKeep {
		return nil
	}
	return b[:0]
}

// ReadAll appends everything r holds to buf, as io.ReadAll does, so a
// pooled buffer can take a document read from a stream.
func ReadAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, len(buf)))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Object drives one {...} body: depth accounting, key framing, comma
// discipline. field is called with the cursor on the value of each key
// and must consume exactly that value.
func (d *Decoder) Object(field func(key []byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.i++ // '{'
	d.ws()
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		c, err := d.Peek()
		if err != nil {
			return err
		}
		if c != '"' {
			return d.errInvalid(c, "looking for beginning of object key string")
		}
		key, err := d.readString()
		if err != nil {
			return err
		}
		d.ws()
		c, err = d.Peek()
		if err != nil {
			return err
		}
		if c != ':' {
			return d.errInvalid(c, "after object key")
		}
		d.i++
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		c, err = d.Peek()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.i++
			d.ws()
		case '}':
			d.i++
			d.depth--
			return nil
		default:
			return d.errInvalid(c, "after object key:value pair")
		}
	}
}

// StringField decodes a string value onto the arena's tail and points
// *s at it; null leaves *s unchanged.
func (d *Decoder) StringField(s *Span) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.Literal("null")
	case '"':
		return d.str(s)
	}
	return d.errInvalid(c, "decoding a string field")
}

// str decodes the string at the cursor onto the arena's tail.
func (d *Decoder) str(s *Span) error {
	start, done, err := d.cleanPrefix()
	if err != nil {
		return err
	}
	a := *d.arena
	off := len(a)
	if done {
		a = append(a, d.b[start:d.i-1]...)
	} else if a, err = d.unquote(a, start); err != nil {
		return err
	}
	*d.arena = a
	*s = Span{Off: off, End: len(a)}
	return nil
}

// UintField decodes a JSON number into *v; null leaves *v unchanged.
// Negative, fractional, exponential and overflowing numbers are
// rejected, exactly the literals strconv.ParseUint rejects for
// encoding/json's uint64 path.
func (d *Decoder) UintField(v *uint64) error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.Literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.errInvalid(c, "decoding an unsigned integer field")
	}
	lit, err := d.scanNumber()
	if err != nil {
		return err
	}
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return fmt.Errorf("cannot unmarshal number %s into uint64 field", lit)
		}
		dgt := uint64(c - '0')
		if n > (math.MaxUint64-dgt)/10 {
			return fmt.Errorf("cannot unmarshal number %s into uint64 field: overflow", lit)
		}
		n = n*10 + dgt
	}
	*v = n
	return nil
}

// array drives one [...] body: depth accounting and comma discipline.
// elem is called with the cursor on each element and must consume
// exactly that element.
func (d *Decoder) array(elem func() error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.i++ // '['
	d.ws()
	if c, err := d.Peek(); err != nil {
		return err
	} else if c == ']' {
		d.i++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		c, err := d.Peek()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			d.i++
			d.ws()
		case ']':
			d.i++
			d.depth--
			return nil
		default:
			return d.errInvalid(c, "after array element")
		}
	}
}

// SkipValue consumes one well-formed JSON value of any shape (unknown
// fields). The whole value is validated — encoding/json's scanner
// checks unknown fields too, so a malformed unknown value must reject
// the document here as well.
func (d *Decoder) SkipValue() error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, err := d.readString()
		return err
	case c == 't':
		return d.Literal("true")
	case c == 'f':
		return d.Literal("false")
	case c == 'n':
		return d.Literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := d.scanNumber()
		return err
	case c == '{':
		return d.Object(func([]byte) error { return d.SkipValue() })
	case c == '[':
		return d.array(d.SkipValue)
	}
	return d.errInvalid(c, "looking for beginning of value")
}

// readString decodes the string at d.i (which must be '"') for
// transient use (object keys, skipped values), returning its bytes.
// Clean ASCII is sliced zero-copy out of the input; escapes and
// non-ASCII (which may need invalid-UTF-8 replacement) are unquoted
// into the scratch buffer. The returned slice is valid only until the
// next readString.
func (d *Decoder) readString() ([]byte, error) {
	start, done, err := d.cleanPrefix()
	switch {
	case err != nil:
		return nil, err
	case done:
		return d.b[start : d.i-1], nil
	}
	buf, err := d.unquote(d.buf[:0], start)
	if err != nil {
		return nil, err
	}
	d.buf = buf
	return buf, nil
}

// cleanPrefix advances over the string opened at d.i ('"') for as long
// as its bytes need no unquoting, and returns the index of its first
// content byte. done reports that the closing quote was reached (d.i is
// then just past it); otherwise d.i rests on the first escape or
// non-ASCII byte. Control bytes are rejected.
func (d *Decoder) cleanPrefix() (start int, done bool, err error) {
	d.i++
	start = d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return start, true, nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			return start, false, nil
		}
		if c < 0x20 {
			return start, false, d.errInvalid(c, "in string literal")
		}
		d.i++
	}
	return start, false, errEnd
}

// unquote finishes a string decode that needs byte processing, appending
// the string's bytes from start onward to dst and returning it. It
// mirrors encoding/json's unquote: escape table, \u with UTF-16
// surrogate pairing (lone surrogates become U+FFFD without error), and
// invalid raw UTF-8 replaced with U+FFFD.
func (d *Decoder) unquote(dst []byte, start int) ([]byte, error) {
	buf := append(dst, d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return buf, nil
		case c == '\\':
			d.i++
			if d.i >= len(d.b) {
				return nil, errEnd
			}
			e := d.b[d.i]
			d.i++
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				rr, ok := d.hex4()
				if !ok {
					return nil, fmt.Errorf("invalid \\u escape in string literal")
				}
				if utf16.IsSurrogate(rr) {
					// Try to pair with a following \uXXXX; an unpairable
					// surrogate decodes to U+FFFD and the following escape
					// (if any) is processed on its own — encoding/json's
					// exact behavior.
					if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						save := d.i
						d.i += 2
						if rr1, ok1 := d.hex4(); ok1 {
							if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
								buf = utf8.AppendRune(buf, dec)
								continue
							}
						}
						d.i = save
					}
					rr = unicode.ReplacementChar
				}
				buf = utf8.AppendRune(buf, rr)
			default:
				return nil, fmt.Errorf("invalid escape code '\\%c' in string literal", e)
			}
		case c < 0x20:
			return nil, d.errInvalid(c, "in string literal")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			buf = utf8.AppendRune(buf, r)
			d.i += size
		}
	}
	return nil, errEnd
}

// hex4 parses exactly four hex digits at d.i, advancing past them.
func (d *Decoder) hex4() (rune, bool) {
	if d.i+4 > len(d.b) {
		return 0, false
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			r = r<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case 'A' <= c && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	d.i += 4
	return r, true
}

// scanNumber consumes one number per the JSON grammar and returns its
// literal bytes. The follower byte is the caller's problem: an illegal
// one fails the comma/close check that comes next, as in encoding/json.
func (d *Decoder) scanNumber() ([]byte, error) {
	start := d.i
	if d.b[d.i] == '-' {
		d.i++
	}
	c, err := d.Peek()
	if err != nil {
		return nil, err
	}
	switch {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
			d.i++
		}
	default:
		return nil, d.errInvalid(c, "in numeric literal")
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if err := d.digits(); err != nil {
			return nil, err
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if err := d.digits(); err != nil {
			return nil, err
		}
	}
	return d.b[start:d.i], nil
}

// digits consumes one or more decimal digits.
func (d *Decoder) digits() error {
	c, err := d.Peek()
	if err != nil {
		return err
	}
	if c < '0' || c > '9' {
		return d.errInvalid(c, "in numeric literal")
	}
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return nil
}

// Literal consumes an exact keyword (true/false/null). The character
// after it is validated by whatever parse step follows, matching the
// scanner's state machine.
func (d *Decoder) Literal(lit string) error {
	if len(d.b)-d.i < len(lit) {
		return errEnd
	}
	if string(d.b[d.i:d.i+len(lit)]) != lit {
		return fmt.Errorf("invalid literal, expected %q", lit)
	}
	d.i += len(lit)
	return nil
}

func (d *Decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// Peek returns the byte at the cursor without consuming it.
func (d *Decoder) Peek() (byte, error) {
	if d.i >= len(d.b) {
		return 0, errEnd
	}
	return d.b[d.i], nil
}

// push opens one container level, enforcing the nesting cap.
func (d *Decoder) push() error {
	d.depth++
	if d.depth > MaxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// errInvalid is the syntax error for byte c met in context ctx.
func (d *Decoder) errInvalid(c byte, ctx string) error {
	return fmt.Errorf("invalid character %q %s", c, ctx)
}

// FoldedEq reports whether key case-folds to target, an ASCII field
// name. The fold is encoding/json's: each rune mapped to the minimum of
// its unicode.SimpleFold orbit — so exotic equivalences like the Kelvin
// sign folding to 'K' match exactly as they do there.
func FoldedEq(key []byte, target string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(target) {
			return false
		}
		t := upper(target[j])
		c := key[i]
		if c < utf8.RuneSelf {
			if upper(c) != t {
				return false
			}
			i++
			j++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		r = foldRune(r)
		if r >= utf8.RuneSelf || byte(r) != t {
			return false
		}
		i += n
		j++
	}
	return j == len(target)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldRune maps r to the minimum rune of its SimpleFold orbit —
// encoding/json's canonical fold.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
