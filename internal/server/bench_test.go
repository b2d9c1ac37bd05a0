package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"wolves/internal/engine"
	"wolves/internal/gen"
)

// BenchmarkValidateRequest runs POST /v1/validate through Handler() on a
// warm oracle cache: the design loop's stateless request, from the raw
// body to the encoded report. The workflow is layered (16 layers,
// adjacent-layer edge probability 0.05) and the view is a 64-composite
// interval view, so the per-request work the cache cannot save is the
// decode of both documents, the fingerprint and the per-view validation.
// CI's alloc-guard step holds allocs/op at n=4096 to at most 32 above
// n=1024: a request must not allocate per task.
func BenchmarkValidateRequest(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			wf := gen.Layered(gen.LayeredConfig{Name: "vr", Tasks: n, Layers: 16, EdgeProb: 0.05, Seed: 7})
			v := gen.IntervalView(wf, 64, "iv")
			wfj, err := json.Marshal(wf)
			if err != nil {
				b.Fatal(err)
			}
			vj, err := json.Marshal(v)
			if err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(ValidateRequest{Workflow: wfj, View: vj})
			if err != nil {
				b.Fatal(err)
			}
			h := New(engine.New(engine.WithWorkers(1)), WithRequestTimeout(0)).Handler()
			serve := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/validate", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("validate: %d %s", rec.Code, rec.Body.Bytes())
				}
			}
			serve() // builds the oracle: every timed request is a cache hit
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
