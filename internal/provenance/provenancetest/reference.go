// Package provenancetest holds the from-scratch reference of the view
// audit: a nested loop over closure rows and per-composite bitsets,
// sharing no label index and no code with provenance.AuditLabels, which
// tests compare against it. Only tests import it.
package provenancetest

import (
	"fmt"

	"wolves/internal/bitset"
	"wolves/internal/provenance"
	"wolves/internal/view"
)

// Audit is the reference audit of a view: every count of
// provenance.ViewAudit, and the four delta relations as one ascending
// list per composite.
type Audit struct {
	Composites, TruePairs, ReportedPairs, FalsePairs, MissingPairs, WrongQueries int
	Precision                                                                    float64

	SpuriousUpstream, SpuriousDownstream, MissingUpstream, MissingDownstream [][]int
}

// Reference audits v against from-scratch closures of its workflow's
// task graph and of its quotient graph (dag.Graph.Reachability).
func Reference(v *view.View) *Audit {
	wf := v.Workflow()
	fwd, q := wf.Graph().Reachability(), v.Graph().Reachability()
	k, n := v.N(), wf.N()
	// trueReach[a]: composites holding a task some member of a reaches.
	trueReach := make([]*bitset.Set, k)
	for a := range trueReach {
		row := bitset.New(n)
		for _, t := range v.Composite(a).Members() {
			row.Or(fwd.Row(t))
		}
		cs := bitset.New(k)
		row.ForEach(func(t int) bool {
			cs.Set(v.CompOf(t))
			return true
		})
		trueReach[a] = cs
	}
	// reported[b]: composites with a view path to b.
	reported := make([]*bitset.Set, k)
	for b := range reported {
		reported[b] = bitset.New(k)
	}
	for a := 0; a < k; a++ {
		q.Row(a).ForEach(func(b int) bool {
			reported[b].Set(a)
			return true
		})
	}

	ref := &Audit{
		Composites:         k,
		SpuriousUpstream:   make([][]int, k),
		SpuriousDownstream: make([][]int, k),
		MissingUpstream:    make([][]int, k),
		MissingDownstream:  make([][]int, k),
	}
	for b := 0; b < k; b++ {
		wrong := false
		for a := 0; a < k; a++ {
			if a == b {
				continue
			}
			real, rep := trueReach[a].Test(b), reported[b].Test(a)
			if real {
				ref.TruePairs++
			}
			if rep {
				ref.ReportedPairs++
			}
			switch {
			case rep && !real:
				ref.FalsePairs++
				wrong = true
				ref.SpuriousUpstream[b] = append(ref.SpuriousUpstream[b], a)
				ref.SpuriousDownstream[a] = append(ref.SpuriousDownstream[a], b)
			case real && !rep:
				ref.MissingPairs++
				ref.MissingUpstream[b] = append(ref.MissingUpstream[b], a)
				ref.MissingDownstream[a] = append(ref.MissingDownstream[a], b)
			}
		}
		if wrong {
			ref.WrongQueries++
		}
	}
	if ref.ReportedPairs == 0 {
		ref.Precision = 1.0
	} else {
		ref.Precision = float64(ref.ReportedPairs-ref.FalsePairs) / float64(ref.ReportedPairs)
	}
	return ref
}

// Diff reports the first difference between got and the reference — a
// count, the precision, or one composite's row of a delta relation — or
// nil when they agree on all of them.
func (ref *Audit) Diff(got *provenance.ViewAudit) error {
	counts := []struct {
		name      string
		got, want int
	}{
		{"composites", got.Composites, ref.Composites},
		{"true pairs", got.TruePairs, ref.TruePairs},
		{"reported pairs", got.ReportedPairs, ref.ReportedPairs},
		{"false pairs", got.FalsePairs, ref.FalsePairs},
		{"missing pairs", got.MissingPairs, ref.MissingPairs},
		{"wrong queries", got.WrongQueries, ref.WrongQueries},
	}
	for _, c := range counts {
		if c.got != c.want {
			return fmt.Errorf("%s = %d, reference %d", c.name, c.got, c.want)
		}
	}
	if got.Precision != ref.Precision {
		return fmt.Errorf("precision = %v, reference %v", got.Precision, ref.Precision)
	}
	rels := []struct {
		name string
		got  func(int) []int32
		want [][]int
	}{
		{"spurious upstream", got.SpuriousUpstream, ref.SpuriousUpstream},
		{"spurious downstream", got.SpuriousDownstream, ref.SpuriousDownstream},
		{"missing upstream", got.MissingUpstream, ref.MissingUpstream},
		{"missing downstream", got.MissingDownstream, ref.MissingDownstream},
	}
	for _, r := range rels {
		for c, want := range r.want {
			if row := r.got(c); !equal(row, want) {
				return fmt.Errorf("%s of composite %d = %v, reference %v", r.name, c, row, want)
			}
		}
	}
	return nil
}

func equal(got []int32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, x := range got {
		if int(x) != want[i] {
			return false
		}
	}
	return true
}
