package gen_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"wolves/internal/core"
	"wolves/internal/gen"
	"wolves/internal/soundness"
	"wolves/internal/view"
	"wolves/internal/workflow"
)

// TestViewsGolden pins the bytes of every view constructor the
// benchmark builds its inputs with — interval, random, module and
// injected-unsound views, FromPartition, Atomic — and of a strong
// correction's output, as SHA-256 digests of their JSON. A change here
// changes what the benchmark measures, and what clients see.
func TestViewsGolden(t *testing.T) {
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:8])
	}
	wfs := []*workflow.Workflow{
		gen.Layered(gen.LayeredConfig{Name: "layered", Tasks: 512, Layers: 16, EdgeProb: 0.05, Seed: 11}),
		gen.SeriesParallel(gen.SPConfig{Name: "sp", Depth: 6, MaxBranch: 4, Seed: 12}),
		gen.ScientificPipeline(gen.PipelineConfig{Name: "pipe", Branches: 16, ChainLen: 14, SideChains: 4, SideChainLen: 4, Seed: 13}),
	}
	var got []string
	for _, wf := range wfs {
		k := max(2, wf.N()/16)
		part := make([]int, wf.N())
		for i := range part {
			part[i] = (i * 7) % k
		}
		fp, err := view.FromPartition(wf, "fp", part)
		if err != nil {
			t.Fatal(err)
		}
		unsound := gen.InjectUnsound(gen.IntervalView(wf, k, "u"), max(1, k/8), 21)
		vc, err := core.CorrectViewCtx(context.Background(), soundness.NewOracle(wf), unsound, core.Strong, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got,
			digest(gen.IntervalView(wf, k, "iv")),
			digest(gen.RandomView(wf, k, 22, "rv")),
			digest(gen.ModuleView(wf, "mv")),
			digest(unsound),
			digest(fp),
			digest(view.Atomic(wf)),
			digest(vc.Corrected))
	}
	// Per workflow: interval, random, module, injected-unsound,
	// FromPartition, Atomic, strong correction.
	want := []string{
		"c9c9dc3ae2e16533", "c25ccd1217c2a397", "5037562c3e7fd6ab", "bf4b2f064d0e02e0", "b77e413349f0bbb9", "d6f4644a85d7bc84", "bd01f2de568fa24b",
		"69eff0ca24378463", "4a57d65f1a07a75b", "683044e3f1f3d8d2", "3891d52441ba8059", "9fc36b81f28ee41f", "1a1ac3d90b6f6264", "3891d52441ba8059",
		"ecd937f5c860e196", "6a166ff2f3e7ec5d", "fe7aa8db93a77ed2", "251ebf4e90ad3e6d", "bbc10a858e63baa1", "8ff17e1def812d60", "710fa5a31da52eb6",
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("view %d of workflow %d: digest %s, want %s", i%7, i/7, got[i], want[i])
		}
	}
}
