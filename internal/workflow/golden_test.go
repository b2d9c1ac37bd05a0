package workflow_test

import (
	"strings"
	"testing"

	"wolves/internal/repo"
	"wolves/internal/workflow"
)

// longIDDoc is a workflow document whose task IDs (each over 1 KiB) are
// longer than the buffer Fingerprint hashes through, with its edge list
// in the order given.
func longIDDoc(edges []string) string {
	id := func(c string) string { return `"` + strings.Repeat(c, 1100) + `"` }
	return `{"name":"long","tasks":[{"id":` + id("a") + `},{"id":` + id("b") + `},{"id":` + id("c") + `},{"id":"d"}],` +
		`"edges":[` + strings.Join(edges, ",") + `]}`
}

// permutedDoc declares the same six-task workflow with its edge list in
// the order given: a serialization artifact the digest must ignore.
func permutedDoc(edges []string) string {
	return `{"name":"perm","tasks":[{"id":"s"},{"id":"p"},{"id":"q"},{"id":"r"},{"id":"t"},{"id":"u","name":"U","kind":"sink"}],` +
		`"edges":[` + strings.Join(edges, ",") + `]}`
}

// TestFingerprintGolden pins the digest itself. Fingerprints are on the
// wire (WorkflowInfo.fingerprint) and key the oracle cache, so a change
// to the hashed encoding is a protocol change, not a refactor. The hex
// values were computed by the sha256-over-io.WriteString implementation
// this one replaced.
func TestFingerprintGolden(t *testing.T) {
	fig1, _ := repo.Figure1()
	long := func(edges ...string) *workflow.Workflow {
		t.Helper()
		wf, err := workflow.DecodeJSON(strings.NewReader(longIDDoc(edges)))
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	perm := func(edges ...string) *workflow.Workflow {
		t.Helper()
		wf, err := workflow.DecodeJSON(strings.NewReader(permutedDoc(edges)))
		if err != nil {
			t.Fatal(err)
		}
		return wf
	}
	ab, bc, ad := `["`+strings.Repeat("a", 1100)+`","`+strings.Repeat("b", 1100)+`"]`,
		`["`+strings.Repeat("b", 1100)+`","`+strings.Repeat("c", 1100)+`"]`,
		`["`+strings.Repeat("a", 1100)+`","d"]`
	for _, c := range []struct {
		name string
		wf   *workflow.Workflow
		want string
	}{
		{"figure1", fig1, "4086d4dde9bc59bbee1c3c43262d750ad2f37b0a6ec9761b2e0ce48cf3d1290f"},
		{"long-ids", long(ab, bc, ad), "7ea4f132ddb413d9f53faa6b9c4c1f7b898d79676cd11fc913fb80bbb154b6d7"},
		{"long-ids-permuted", long(ad, bc, ab), "7ea4f132ddb413d9f53faa6b9c4c1f7b898d79676cd11fc913fb80bbb154b6d7"},
		{"permuted", perm(`["s","p"]`, `["s","q"]`, `["s","r"]`, `["p","t"]`, `["q","t"]`, `["r","t"]`, `["t","u"]`), "40941846a080901aced1ef7eedc8e41874c410f53bafef0c16eeab1efb2e337a"},
		{"permuted-reversed", perm(`["t","u"]`, `["r","t"]`, `["q","t"]`, `["p","t"]`, `["s","r"]`, `["s","q"]`, `["s","p"]`), "40941846a080901aced1ef7eedc8e41874c410f53bafef0c16eeab1efb2e337a"},
		{"permuted-shuffled", perm(`["q","t"]`, `["s","p"]`, `["t","u"]`, `["s","r"]`, `["p","t"]`, `["s","q"]`, `["r","t"]`, `["s","p"]`), "40941846a080901aced1ef7eedc8e41874c410f53bafef0c16eeab1efb2e337a"},
	} {
		if got := c.wf.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
