package view

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"wolves/internal/jsonwire"
	"wolves/internal/workflow"
)

// TestDecodePoolReleasesBuffers pins the pool discipline runs keeps: a
// pooled decode scratch holds no reference to the body it decoded or
// to the IDs of the view it built, no byte buffer a multi-megabyte
// document grew past ScratchKeep, and no slice or ID map a view of many
// composites grew past SliceKeep or idsKeep.
func TestDecodePoolReleasesBuffers(t *testing.T) {
	wf, err := workflow.NewBuilder("w").AddTask("a").Build()
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	doc.WriteString(`{"composites":[{"id":"c","members":["a"]}`)
	for i := 0; doc.Len() < 2*jsonwire.ScratchKeep; i++ {
		fmt.Fprintf(&doc, `,{"id":"c","name":"%07d%s"}`, i, strings.Repeat("n", 64))
	}
	doc.WriteString(`]}`)
	big := []byte(doc.String())
	if _, err := DecodeBytes(wf, big); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJSON(wf, bytes.NewReader(big)); err != nil {
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

	// An atomic view of 40,000 tasks grows the composite list and the
	// member slab past SliceKeep and the ID map past idsKeep; the scratch
	// that decoded it must let all three go. A small view after it keeps
	// the fresh map.
	const tasks = 40000
	b := workflow.NewBuilder("wide")
	doc.Reset()
	doc.WriteString(`{"composites":[`)
	for i := 0; i < tasks; i++ {
		b.AddTask(fmt.Sprintf("t%d", i))
		if i > 0 {
			doc.WriteByte(',')
		}
		fmt.Fprintf(&doc, `{"id":"c%d","members":["t%d"]}`, i, i)
	}
	doc.WriteString(`]}`)
	wide, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := decodePool.New().(*decodeScratch)
	v, err := sc.decode(wide, []byte(doc.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != tasks || len(sc.ids) <= idsKeep || capBytes(sc.w.Composites) <= jsonwire.SliceKeep || capBytes(sc.members) <= jsonwire.SliceKeep {
		t.Fatalf("%d composites decoded into %d IDs, a composite list of %d and a member slab of %d bytes: the document does not pass the caps",
			v.N(), len(sc.ids), capBytes(sc.w.Composites), capBytes(sc.members))
	}
	grown := fmt.Sprintf("%p", sc.ids)
	checkReleased(t, sc.release())
	fresh := fmt.Sprintf("%p", sc.ids)
	if fresh == grown {
		t.Fatalf("pooled scratch keeps the ID map of %d composites", tasks)
	}
	if _, err := sc.decode(wf, []byte(`{"composites":[{"id":"c","members":["a"]}]}`), nil); err != nil {
		t.Fatal(err)
	}
	checkReleased(t, sc.release())
	if kept := fmt.Sprintf("%p", sc.ids); kept != fresh {
		t.Fatal("pooled scratch replaced the ID map of a one-composite view")
	}
}

// checkReleased fails unless sc, ready for the pool, references no
// document or view and keeps no byte buffer or slice past its cap.
func checkReleased(t *testing.T, sc *decodeScratch) {
	t.Helper()
	refs, unquote := sc.d.Holds()
	if refs || len(sc.ids) > 0 || cap(sc.arena) > jsonwire.ScratchKeep || cap(sc.body) > jsonwire.ScratchKeep || unquote > jsonwire.ScratchKeep {
		t.Fatalf("pooled scratch keeps refs %v, %d IDs, arena %d, body %d, unquote %d bytes; cap %d",
			refs, len(sc.ids), cap(sc.arena), cap(sc.body), unquote, jsonwire.ScratchKeep)
	}
	for name, n := range map[string]int{
		"composites": capBytes(sc.w.Composites), "members": capBytes(sc.members),
		"heads": capBytes(sc.heads), "tails": capBytes(sc.tails), "next": capBytes(sc.next),
	} {
		if n > jsonwire.SliceKeep {
			t.Fatalf("pooled scratch keeps %d bytes of %s; cap %d", n, name, jsonwire.SliceKeep)
		}
	}
}

// capBytes returns the bytes of s's backing array.
func capBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}
