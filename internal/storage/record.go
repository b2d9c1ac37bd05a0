// Package storage implements the durable backend of the live workflow
// registry: a binary, length-prefixed, CRC32C-checksummed write-ahead
// log of registry operations plus periodic per-workflow snapshots, with
// segment rotation, snapshot-triggered compaction, and a replayer that
// restores an engine.Registry to its pre-crash state (same versions,
// same reports via revalidation) after a hard kill at any byte offset.
//
// The Store implements engine.Journal; wolvesd opens one per -data-dir,
// recovers the registry from it at boot, installs it as the registry's
// journal, and checkpoints it on graceful shutdown. See store.go for
// the write path and recover.go for the read path.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record types, one per registry transition (see engine.Journal).
const (
	recRegister byte = 1 // registerBody: workflow registered/replaced
	recMutate   byte = 2 // mutateBody: mutation batch committed
	recAttach   byte = 3 // attachBody: view attached/replaced
	recDetach   byte = 4 // detachBody: view detached
	recDelete   byte = 5 // deleteBody: workflow deleted/evicted
	recRun      byte = 6 // runBody: execution trace ingested/replaced
	recRunBatch byte = 7 // runBody per run: traces ingested together, restored whole
)

// segMagic opens every WAL segment file; a file without it is rejected
// as foreign rather than replayed as garbage.
var segMagic = []byte("WOLVESW1")

const (
	// recHeaderLen is the fixed on-disk prefix of every record:
	// uint32 LE payload length followed by uint32 LE CRC32C(payload).
	recHeaderLen = 8
	// recPrefixLen is the payload's own fixed prefix: 1 type byte plus
	// the uint64 LE LSN.
	recPrefixLen = 9
	// maxRecordLen caps a record payload. The largest legitimate payload
	// is a workflow or view document (the HTTP layer caps uploads at
	// 8 MiB); anything bigger is a corrupt length field, not data.
	maxRecordLen = 64 << 20
)

// crcTable is the Castagnoli polynomial (hardware-accelerated CRC32C).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks an incomplete or checksum-corrupt record: the signature
// of a crash mid-append. Torn records are tolerated (and truncated away)
// at the tail of the last segment and fatal anywhere else.
var errTorn = errors.New("storage: torn record")

// record is one WAL entry. The body is the encoded record body — JSON
// for the cold kinds and for every record written before PR 9, the
// version-tagged binary form of binary.go for hot kinds (mutate, run)
// since; lsn is the store-wide monotonic sequence number used to
// decide, per workflow, which records a snapshot already covers. The
// framing below is encoding-agnostic: the body is opaque bytes under
// the CRC.
type record struct {
	typ  byte
	lsn  uint64
	body []byte
}

// appendRecord encodes rec onto dst:
//
//	| len(payload) uint32 | crc32c(payload) uint32 | payload |
//	payload = | type byte | lsn uint64 | body |
func appendRecord(dst []byte, rec record) []byte {
	payloadLen := recPrefixLen + len(rec.body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC backpatched below
	start := len(dst)
	dst = append(dst, rec.typ)
	dst = binary.LittleEndian.AppendUint64(dst, rec.lsn)
	dst = append(dst, rec.body...)
	binary.LittleEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[start:], crcTable))
	return dst
}

// readRecord decodes one record from r. It returns the bytes consumed so
// scanners can track the last valid offset. io.EOF means a clean end of
// segment; errTorn means a short or checksum-corrupt record.
func readRecord(r *bufio.Reader) (record, int64, error) {
	var hdr [recHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return record{}, 0, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return record{}, 0, errTorn
		}
		return record{}, 0, err
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if payloadLen < recPrefixLen || payloadLen > maxRecordLen {
		return record{}, 0, errTorn
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return record{}, 0, errTorn
		}
		return record{}, 0, err
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return record{}, 0, errTorn
	}
	rec := record{
		typ:  payload[0],
		lsn:  binary.LittleEndian.Uint64(payload[1:recPrefixLen]),
		body: payload[recPrefixLen:],
	}
	if rec.typ < recRegister || rec.typ > recRunBatch {
		return record{}, 0, fmt.Errorf("storage: unknown record type %d at lsn %d", rec.typ, rec.lsn)
	}
	return rec, int64(recHeaderLen) + int64(payloadLen), nil
}

// The typed record bodies and their codecs live next door: compat.go
// holds the JSON structs (the designated compat decoder for pre-PR-9
// logs and the cold record kinds), binary.go the version-tagged binary
// encoding of the hot kinds and the sniffing decoders that accept both.
