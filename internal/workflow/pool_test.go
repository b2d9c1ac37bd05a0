package workflow

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"wolves/internal/jsonwire"
)

// TestDecodePoolReleasesBuffers pins the pool discipline runs keeps: a
// pooled decode scratch holds no reference to the body it decoded, no
// byte buffer a multi-megabyte document grew past ScratchKeep, and no
// slice a document of many tasks and edges grew past SliceKeep.
func TestDecodePoolReleasesBuffers(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`{"name":"big","tasks":[`)
	for i := 0; doc.Len() < 2*jsonwire.ScratchKeep; i++ {
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"id":"task-%07d","kind":"%s"}`, i, strings.Repeat("k", 64))
	}
	doc.WriteString(`]}`)
	big := []byte(doc.String())
	if _, err := DecodeBytes(big); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJSON(bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	var drained []*decodeScratch
	defer func() {
		for _, sc := range drained {
			decodePool.Put(sc)
		}
	}()
	for i := 0; i < 64; i++ {
		sc := decodePool.Get().(*decodeScratch)
		drained = append(drained, sc)
		checkReleased(t, sc)
	}

	// 40,000 tasks and 160,000 edges grow the task and edge lists past
	// SliceKeep; the scratch that decoded them must let both go.
	const tasks, fanout = 40000, 4
	doc.Reset()
	doc.WriteString(`{"name":"wide","tasks":[`)
	for i := 0; i < tasks; i++ {
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"id":"t%d"}`, i)
	}
	doc.WriteString(`],"edges":[`)
	sep := ""
	for i := 0; i < tasks; i++ {
		for j := i + 1; j <= i+fanout && j < tasks; j++ {
			fmt.Fprintf(&doc, `%s["t%d","t%d"]`, sep, i, j)
			sep = ","
		}
	}
	doc.WriteString(`]}`)
	sc := decodePool.New().(*decodeScratch)
	wf, err := sc.decode([]byte(doc.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if wf.N() != tasks || capBytes(sc.w.Tasks) <= jsonwire.SliceKeep || capBytes(sc.w.Edges) <= jsonwire.SliceKeep {
		t.Fatalf("%d tasks decoded into task and edge lists of %d and %d bytes: the document does not pass SliceKeep",
			wf.N(), capBytes(sc.w.Tasks), capBytes(sc.w.Edges))
	}
	checkReleased(t, sc.release())
}

// checkReleased fails unless sc, ready for the pool, references no
// document and keeps no byte buffer or slice past its cap.
func checkReleased(t *testing.T, sc *decodeScratch) {
	t.Helper()
	refs, unquote := sc.d.Holds()
	if refs || cap(sc.arena) > jsonwire.ScratchKeep || cap(sc.body) > jsonwire.ScratchKeep || unquote > jsonwire.ScratchKeep {
		t.Fatalf("pooled scratch keeps refs %v, arena %d, body %d, unquote %d bytes; cap %d",
			refs, cap(sc.arena), cap(sc.body), unquote, jsonwire.ScratchKeep)
	}
	if capBytes(sc.w.Tasks) > jsonwire.SliceKeep || capBytes(sc.w.Edges) > jsonwire.SliceKeep || capBytes(sc.edges) > jsonwire.SliceKeep {
		t.Fatalf("pooled scratch keeps tasks %d, edges %d, resolved edges %d bytes; cap %d",
			capBytes(sc.w.Tasks), capBytes(sc.w.Edges), capBytes(sc.edges), jsonwire.SliceKeep)
	}
}

// capBytes returns the bytes of s's backing array.
func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
