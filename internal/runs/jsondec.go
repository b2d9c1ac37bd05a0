// Hand-rolled JSON decoding for the ingestion wire shapes (PR 9).
// encoding/json's reflective decoder dominated the ingest profile —
// ~85% of Store.Ingest was json.Unmarshal of the incoming document —
// and the wire formats are three tiny fixed structs, so a purpose-built
// decoder removes the reflection entirely. It materializes no strings:
// every string value is unquoted onto the tail of a byte arena and
// recorded as a span of it, so a document decodes with no
// allocation once the pooled arena and slices have grown to fit.
// Behavior is pinned to encoding/json, not merely inspired by it:
// acceptance, rejection and the decoded values agree exactly
// (FuzzJSONDecodeEquivalence differentially fuzzes the two decoders,
// spans turned back into strings), including the obscure corners —
// case-folded key matching, duplicate-key merge semantics, null as
// leave-unchanged (but slice- and pointer-clearing), lone surrogate
// replacement, invalid-UTF-8 replacement, and the scanner's nesting
// cap — so swapping decoders is invisible on the wire.
package runs

import (
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// jsonMaxDepth mirrors encoding/json's scanner nesting cap: a document
// may hold at most this many open containers at once. Inputs nesting
// deeper are rejected there, so they are rejected here too.
const jsonMaxDepth = 10000

var errJSONEnd = errors.New("unexpected end of JSON input")

// jdec is the decoder state: input, cursor, open-container depth, a
// scratch buffer backing escaped key decodes (clean keys — no escapes,
// no control bytes, pure ASCII — are sliced zero-copy), and the arena
// that decoded string values are appended to. The entry points set
// arena; pooling a jdec (ingestScratch) reuses the scratch buffer
// across documents.
type jdec struct {
	b     []byte
	i     int
	depth int
	buf   []byte
	arena *[]byte
}

// wireLineBufs are the pointee buffers behind a decoded wireLine's
// pointer fields, so the per-line NDJSON decode allocates nothing. The
// pointers aliased into the wireLine are valid until the next decode
// with the same bufs — accumulate() copies them out line by line (the
// spans they hold index the run's arena, which outlives the line).
type wireLineBufs struct {
	inv  wireInvocation
	art  wireArtifact
	used wireUsed
}

// decodeRunDocJSON parses one JSON run document into w, appending its
// string values to w's arena. Matches json.Unmarshal of doc into the
// string-field shape exactly.
func (d *jdec) decodeRunDocJSON(w *wireRun, doc []byte) error {
	d.b, d.i, d.depth, d.arena = doc, 0, 0, &w.arena
	d.ws()
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		// Top-level null is a no-op, exactly like json.Unmarshal.
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		if err := d.runObject(w); err != nil {
			return err
		}
	default:
		return d.errInvalid(c, "looking for beginning of value")
	}
	return d.end()
}

// decodeWireLineJSON parses one NDJSON record into l, appending its
// string values to *arena. Pointer fields point into bufs when non-nil
// (the pooled path), or freshly allocated structs otherwise. Matches
// json.Unmarshal of line into the string-field shape exactly.
func (d *jdec) decodeWireLineJSON(l *wireLine, line []byte, bufs *wireLineBufs, arena *[]byte) error {
	d.b, d.i, d.depth, d.arena = line, 0, 0, arena
	d.ws()
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		if err := d.lineObject(l, bufs); err != nil {
			return err
		}
	default:
		return d.errInvalid(c, "looking for beginning of value")
	}
	return d.end()
}

// SplitBatch frames a JSON array of run documents — the body of a batch
// ingest — into its elements, as sub-slices of body: no element is
// copied, so they live as long as body does. Acceptance matches
// json.Unmarshal of body into []json.RawMessage for an array body: the
// whole of it must be well-formed JSON (nesting cap included) with only
// whitespace after the array, and each element comes back without its
// surrounding whitespace.
func SplitBatch(body []byte) ([][]byte, error) {
	d := jdec{b: body}
	d.ws()
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '[' {
		return nil, d.errInvalid(c, "looking for the beginning of a batch array")
	}
	docs := make([][]byte, 0, 8)
	if err := d.array(func() error {
		start := d.i
		if err := d.skipValue(); err != nil {
			return err
		}
		docs = append(docs, body[start:d.i:d.i])
		return nil
	}); err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return docs, nil
}

// runObject decodes the wireRun object body; d.i is at '{'.
func (d *jdec) runObject(w *wireRun) error {
	return d.object(func(key []byte) error {
		switch string(key) { // compiler-optimized, no allocation
		case "run":
			return d.stringField(&w.Run)
		case "version":
			return d.uintField(&w.Version)
		case "invocations":
			return arrayField(d, &w.Invocations, d.invocationObject, "invocations", "an invocation")
		case "artifacts":
			return arrayField(d, &w.Artifacts, d.artifactObject, "artifacts", "an artifact")
		case "used":
			return arrayField(d, &w.Used, d.usedObject, "used", "a used")
		}
		// No exact match: case-folded match in struct field order, like
		// encoding/json's fallback; then skip as an unknown field.
		switch {
		case foldedEq(key, "RUN"):
			return d.stringField(&w.Run)
		case foldedEq(key, "VERSION"):
			return d.uintField(&w.Version)
		case foldedEq(key, "INVOCATIONS"):
			return arrayField(d, &w.Invocations, d.invocationObject, "invocations", "an invocation")
		case foldedEq(key, "ARTIFACTS"):
			return arrayField(d, &w.Artifacts, d.artifactObject, "artifacts", "an artifact")
		case foldedEq(key, "USED"):
			return arrayField(d, &w.Used, d.usedObject, "used", "a used")
		}
		return d.skipValue()
	})
}

// lineObject decodes the wireLine object body; d.i is at '{'.
func (d *jdec) lineObject(l *wireLine, bufs *wireLineBufs) error {
	var invBuf *wireInvocation
	var artBuf *wireArtifact
	var usedBuf *wireUsed
	if bufs != nil {
		invBuf, artBuf, usedBuf = &bufs.inv, &bufs.art, &bufs.used
	}
	inv := func() error {
		return pointerField(d, &l.Invocation, invBuf, d.invocationObject, "an invocation")
	}
	art := func() error {
		return pointerField(d, &l.Artifact, artBuf, d.artifactObject, "an artifact")
	}
	used := func() error {
		return pointerField(d, &l.Used, usedBuf, d.usedObject, "a used")
	}
	return d.object(func(key []byte) error {
		switch string(key) {
		case "run":
			return d.stringField(&l.Run)
		case "invocation":
			return inv()
		case "artifact":
			return art()
		case "used":
			return used()
		}
		switch {
		case foldedEq(key, "RUN"):
			return d.stringField(&l.Run)
		case foldedEq(key, "INVOCATION"):
			return inv()
		case foldedEq(key, "ARTIFACT"):
			return art()
		case foldedEq(key, "USED"):
			return used()
		}
		return d.skipValue()
	})
}

// pointerField decodes an object into *pp with obj: null clears the
// pointer; an object decodes into the existing pointee when the pointer
// is already set (duplicate-key merge, exactly encoding/json's
// indirect() reuse), or else into buf, zeroed, when non-nil, or a fresh
// allocation. elem names the object in errors.
func pointerField[T any](d *jdec, pp **T, buf *T, obj func(*T) error, elem string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.literal("null"); err != nil {
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

// invocationObject decodes one invocation object into el; d.i is at '{'.
// el is not zeroed: reused slice elements and merged pointees keep
// fields the JSON omits, matching encoding/json.
func (d *jdec) invocationObject(el *wireInvocation) error {
	return d.pairObject(&el.ID, "id", "ID", &el.Task, "task", "TASK")
}

// artifactObject decodes one artifact object into el; d.i is at '{'.
func (d *jdec) artifactObject(el *wireArtifact) error {
	return d.pairObject(&el.ID, "id", "ID", &el.GeneratedBy, "generated_by", "GENERATED_BY")
}

// usedObject decodes one used-edge object into el; d.i is at '{'.
func (d *jdec) usedObject(el *wireUsed) error {
	return d.pairObject(&el.Process, "process", "PROCESS", &el.Artifact, "artifact", "ARTIFACT")
}

// pairObject decodes an object of two string fields: key ka (folded
// form fa) into a, key kb (fb) into b. Exact key matches win over
// case-folded ones, as in encoding/json; other keys are skipped.
func (d *jdec) pairObject(a *span, ka, fa string, b *span, kb, fb string) error {
	return d.object(func(key []byte) error {
		switch string(key) {
		case ka:
			return d.stringField(a)
		case kb:
			return d.stringField(b)
		}
		switch {
		case foldedEq(key, fa):
			return d.stringField(a)
		case foldedEq(key, fb):
			return d.stringField(b)
		}
		return d.skipValue()
	})
}

// object drives one {...} body: depth accounting, key framing, comma
// discipline. field is called with the cursor on the value of each key
// and must consume exactly that value.
func (d *jdec) object(field func(key []byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.i++ // '{'
	d.ws()
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		c, err := d.peek()
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
		c, err = d.peek()
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
		c, err = d.peek()
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

// stringField decodes a string value onto the arena's tail and points
// *s at it; null leaves *s unchanged.
func (d *jdec) stringField(s *span) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
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
		*s = span{off, len(a)}
		return nil
	}
	return d.errInvalid(c, "decoding a string field")
}

// uintField decodes a JSON number into *v; null leaves *v unchanged.
// Negative, fractional, exponential and overflowing numbers are
// rejected, exactly the literals strconv.ParseUint rejects for
// encoding/json's uint64 path.
func (d *jdec) uintField(v *uint64) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
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

// arrayField decodes a JSON array of objects into *sp, each with obj.
// Null sets the slice nil; a duplicate key re-decodes into the existing
// elements in place (omitted fields and null elements keep their prior
// values) — both encoding/json's semantics. Elements appended past the
// existing length start zeroed, which is also what makes pooled-scratch
// reuse safe without clearing. what and elem name the array and an
// element in errors.
func arrayField[T any](d *jdec, sp *[]T, obj func(*T) error, what, elem string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.literal("null"); err != nil {
			return err
		}
		*sp = nil
		return nil
	}
	if c != '[' {
		return d.errInvalid(c, "decoding the "+what+" array")
	}
	old, n := *sp, 0
	if err := d.array(func() error {
		if n == len(old) {
			var zero T
			old = append(old, zero)
		}
		c, err := d.peek()
		if err != nil {
			return err
		}
		switch c {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case '{':
			if err := obj(&old[n]); err != nil {
				return err
			}
		default:
			return d.errInvalid(c, "decoding "+elem+" object")
		}
		n++
		return nil
	}); err != nil {
		return err
	}
	if old == nil {
		old = []T{} // [] decodes to an empty, non-nil slice
	}
	*sp = old[:n]
	return nil
}

// array drives one [...] body: depth accounting and comma discipline.
// elem is called with the cursor on each element and must consume
// exactly that element.
func (d *jdec) array(elem func() error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.i++ // '['
	d.ws()
	if c, err := d.peek(); err != nil {
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
		c, err := d.peek()
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

// skipValue consumes one well-formed JSON value of any shape (unknown
// fields). The whole value is validated — encoding/json's scanner
// checks unknown fields too, so a malformed unknown value must reject
// the document here as well.
func (d *jdec) skipValue() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		_, err := d.readString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := d.scanNumber()
		return err
	case c == '{':
		return d.object(func([]byte) error { return d.skipValue() })
	case c == '[':
		return d.array(d.skipValue)
	}
	return d.errInvalid(c, "looking for beginning of value")
}

// readString decodes the string at d.i (which must be '"') for
// transient use (object keys, skipped values), returning its bytes.
// Clean ASCII is sliced zero-copy out of the input; escapes and
// non-ASCII (which may need invalid-UTF-8 replacement) are unquoted
// into the scratch buffer. The returned slice is valid only until the
// next readString.
func (d *jdec) readString() ([]byte, error) {
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
func (d *jdec) cleanPrefix() (start int, done bool, err error) {
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
	return start, false, errJSONEnd
}

// unquote finishes a string decode that needs byte processing, appending
// the string's bytes from start onward to dst and returning it. It
// mirrors encoding/json's unquote: escape table, \u with UTF-16
// surrogate pairing (lone surrogates become U+FFFD without error), and
// invalid raw UTF-8 replaced with U+FFFD.
func (d *jdec) unquote(dst []byte, start int) ([]byte, error) {
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
				return nil, errJSONEnd
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
	return nil, errJSONEnd
}

// hex4 parses exactly four hex digits at d.i, advancing past them.
func (d *jdec) hex4() (rune, bool) {
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
func (d *jdec) scanNumber() ([]byte, error) {
	start := d.i
	if d.b[d.i] == '-' {
		d.i++
	}
	c, err := d.peek()
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
func (d *jdec) digits() error {
	c, err := d.peek()
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

// literal consumes an exact keyword (true/false/null). The character
// after it is validated by whatever parse step follows, matching the
// scanner's state machine.
func (d *jdec) literal(lit string) error {
	if len(d.b)-d.i < len(lit) {
		return errJSONEnd
	}
	if string(d.b[d.i:d.i+len(lit)]) != lit {
		return fmt.Errorf("invalid literal, expected %q", lit)
	}
	d.i += len(lit)
	return nil
}

// end verifies nothing but whitespace follows the top-level value.
func (d *jdec) end() error {
	d.ws()
	if d.i < len(d.b) {
		return d.errInvalid(d.b[d.i], "after top-level value")
	}
	return nil
}

func (d *jdec) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *jdec) peek() (byte, error) {
	if d.i >= len(d.b) {
		return 0, errJSONEnd
	}
	return d.b[d.i], nil
}

// push opens one container level, enforcing the nesting cap.
func (d *jdec) push() error {
	d.depth++
	if d.depth > jsonMaxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

func (d *jdec) errInvalid(c byte, ctx string) error {
	return fmt.Errorf("invalid character %q %s", c, ctx)
}

// foldedEq reports whether key case-folds to target, where target is a
// pre-folded field name (ASCII; our tags fold to their upper-case
// forms). The fold is encoding/json's: each rune mapped to the minimum
// of its unicode.SimpleFold orbit — so exotic equivalences like the
// Kelvin sign folding to 'K' match exactly as they do there.
func foldedEq(key []byte, target string) bool {
	j := 0
	for i := 0; i < len(key); {
		if j >= len(target) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != target[j] {
				return false
			}
			i++
			j++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		r = foldRune(r)
		if r >= utf8.RuneSelf || byte(r) != target[j] {
			return false
		}
		i += n
		j++
	}
	return j == len(target)
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
