package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/workflow"
)

// FuzzReadRecord throws arbitrary bytes at the WAL record scanner. The
// framing invariants under test:
//
//  1. readRecord never panics and never allocates a payload buffer
//     beyond maxRecordLen, no matter what the length field claims.
//  2. Anything readRecord accepts survives a decode → re-encode →
//     decode round trip byte-for-byte: the scanner only admits records
//     appendRecord could have written.
//  3. The consumed-byte count is exact, so the torn-tail truncation
//     logic (which trusts it) cannot cut mid-record.
func FuzzReadRecord(f *testing.F) {
	// A valid record of every type, an empty-body record, and classic
	// corruptions: flipped CRC, truncated payload, oversized length.
	for typ := recRegister; typ <= recRunBatch; typ++ {
		f.Add(appendRecord(nil, record{typ: typ, lsn: uint64(typ) * 7, body: []byte(`{"id":"wf"}`)}))
	}
	f.Add(appendRecord(nil, record{typ: recRegister, lsn: 1}))
	// Binary-bodied hot records (PR 9): a mutate batch and a run record
	// in the binwire encoding, plus a run record wrapping a binary
	// canonical document (first byte 0xD1, not valid JSON either).
	mutBin := appendMutateBinary(nil, "wf", 9, &engine.AppliedBatch{
		Tasks: []workflow.Task{{ID: "t1", Name: "align", Kind: "exec"}},
		Edges: [][2]string{{"t0", "t1"}},
	})
	f.Add(appendRecord(nil, record{typ: recMutate, lsn: 10, body: mutBin}))
	f.Add(appendRecord(nil, record{typ: recRun, lsn: 11,
		body: appendRunBinary(nil, "wf", "r1", []byte(`{"run":"r1"}`))}))
	f.Add(appendRecord(nil, record{typ: recRun, lsn: 12,
		body: appendRunBinary(nil, "wf", "r2", []byte{0xD1, 0x02, 'r', '2', 0x00, 0x00, 0x00})}))
	truncBin := appendRecord(nil, record{typ: recMutate, lsn: 13, body: mutBin[:len(mutBin)-2]})
	f.Add(truncBin)
	valid := appendRecord(nil, record{typ: recMutate, lsn: 2, body: []byte(`{"id":"x","version":3}`)})
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0xff // CRC byte
	f.Add(flipped)
	f.Add(valid[:len(valid)-3])
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordLen+1)
	f.Add(append(huge, valid[4:]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		consumed := int64(0)
		for {
			rec, n, err := readRecord(r)
			if err != nil {
				// The only sanctioned failures: clean end of input, a torn
				// record, or a well-framed record of an unknown type.
				if err == io.EOF || errors.Is(err, errTorn) ||
					strings.HasPrefix(err.Error(), "storage: unknown record type") {
					break
				}
				t.Fatalf("readRecord: unexpected error shape: %v", err)
			}
			if rec.typ < recRegister || rec.typ > recRunBatch {
				t.Fatalf("accepted record with unknown type %d", rec.typ)
			}
			if n != int64(recHeaderLen+recPrefixLen+len(rec.body)) {
				t.Fatalf("consumed %d bytes for a %d-byte body", n, len(rec.body))
			}
			// Round trip: re-encoding the accepted record must reproduce
			// the exact bytes the scanner consumed.
			reenc := appendRecord(nil, rec)
			if int64(len(reenc)) != n {
				t.Fatalf("re-encode length %d != consumed %d", len(reenc), n)
			}
			if !bytes.Equal(reenc, data[consumed:consumed+n]) {
				t.Fatalf("re-encode diverges from accepted input at offset %d", consumed)
			}
			if crc32.Checksum(reenc[recHeaderLen:], crcTable) != binary.LittleEndian.Uint32(reenc[4:8]) {
				t.Fatal("re-encoded record carries a bad CRC")
			}
			consumed += n
		}
	})
}
