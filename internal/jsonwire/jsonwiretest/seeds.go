// Package jsonwiretest holds the corner-case corpus of the jsonwire
// decoder: the inputs every differential test and fuzz target built on
// jsonwire seeds with, whatever document shape it decodes. Only tests
// import it.
package jsonwiretest

// Seeds are the corner cases a jsonwire decoder must hit exactly as
// encoding/json does: escapes, surrogates, invalid UTF-8, case-folded
// keys, duplicate keys (including a key that shrinks and regrows an
// array, re-exposing elements past its length), nulls at every
// position, numbers at the uint64 boundary, unknown fields of every
// shape, whitespace, bytes after the value, and batch framing. They
// are written against the run-document shape; decoders of other shapes
// meet them as unknown fields and type mismatches. Append new seeds at
// the end: fuzz targets name seeds by position.
var Seeds = []string{
	`null`,
	`{}`,
	` { } `,
	`{"run":"r1","version":7,"invocations":[{"id":"i1","task":"align"}],"artifacts":[{"id":"a1","generated_by":"i1"}],"used":[{"process":"i1","artifact":"a1"}]}`,
	`{"run":"a\u0062c\n\t\"\\\/"}`,
	`{"run":"\ud834\udd1e"}`,
	`{"run":"\ud834"}`,
	`{"run":"\ud834\ud834"}`,
	`{"run":"\udd1e tail"}`,
	"{\"run\":\"\xff\xfe\"}",
	"{\"r\xc3\xbcn\":\"x\"}",
	`{"RUN":"x","Version":3}`,
	`{"ru\u006e":"exact-after-unquote"}`,
	`{"tas\u212a":"kelvin"}`,
	`{"run":"a","run":"b"}`,
	`{"run":"a","run":null}`,
	`{"artifacts":[{"id":"a","generated_by":"g"}],"artifacts":[{"id":"b"}]}`,
	`{"artifacts":[{"id":"a"}],"artifacts":null}`,
	`{"artifacts":[],"invocations":[]}`,
	`{"invocations":[null,{"id":"i"},null]}`,
	`{"version":0}`,
	`{"version":18446744073709551615}`,
	`{"version":18446744073709551616}`,
	`{"version":-1}`,
	`{"version":1.5}`,
	`{"version":1e3}`,
	`{"version":null}`,
	`{"version":"7"}`,
	`{"unknown":{"a":[1,2.5,-3e-7,true,false,null,"s",{"k":[]}]}}`,
	`{"used":[{"process":"p","artifact":"a","extra":[[[{"x":1}]]]}]}`,
	`{"run":123}`,
	`{"run":"a"} `,
	`{"run":"a"}x`,
	`{"run":"a",}`,
	`{"run" "a"}`,
	`{"run":}`,
	`{run:"a"}`,
	`{"run":"a"`,
	`"top-level string"`,
	`[{"run":"a"}]`,
	`true`,
	`12`,
	`nul`,
	`{"invocation":{"id":"i1","task":"t"},"artifact":{"id":"a"},"used":{"process":"p","artifact":"a"}}`,
	`{"invocation":{"id":"a"},"invocation":{"task":"t"}}`,
	`{"invocation":{"id":"a"},"invocation":null}`,
	`{"invocation":null}`,
	`{"invocation":[]}`,
	`{"run":"\u0041\u00e9"}`,
	"{\"run\":\"caf\xc3\xa9\"}",
	`{"version": 0010}`,
	`{"version": 10 }`,
	"\ufeff{}",
	`[]`,
	` [ ] `,
	`[{"run":"a"},{"run":"b"}]`,
	`[ {"run":"a"} , null ,"s", 1, [2] ,{}]`,
	`[{"run":"a"},]`,
	`[{"run":"a"}`,
	`[{"run":"a"}] x`,
	`[{"run":"\x"}]`,
	`[1 2]`,
	"[\"\xff\"]",
	`{"artifacts":[{"id":"a","generated_by":"g"},{"id":"b","generated_by":"h"}],"artifacts":[{"id":"c"}],"artifacts":[{"id":"d"},{"id":"e"}]}`,
	`{"artifacts":[{"id":"a","generated_by":"g"}],"artifacts":[],"artifacts":[{"id":"b"}]}`,
	`{"artifacts":[{"id":"a","generated_by":"g"}],"artifacts":null,"artifacts":[{"id":"b"}]}`,
	`{"artifacts":[{"id":"a","generated_by":"g"},null,{"id":"c"}],"artifacts":[null,null,null]}`,
}

// Deep returns an object whose one field nests n arrays: at n =
// jsonwire.MaxDepth-1 the document sits just under encoding/json's
// nesting cap, at MaxDepth+1 just over it.
func Deep(n int) []byte {
	b := make([]byte, 0, 6+2*n)
	b = append(b, `{"x":`...)
	for i := 0; i < n; i++ {
		b = append(b, '[')
	}
	for i := 0; i < n; i++ {
		b = append(b, ']')
	}
	return append(b, '}')
}
