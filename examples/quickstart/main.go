// Quickstart: build a small two-source ETL workflow, bundle the two
// cleaning tasks into one composite (the classic unsound-view mistake),
// watch provenance answers go wrong, and let each corrector fix it.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"wolves"
)

func main() {
	log.SetFlags(0)

	// Two independent source→clean→load lanes.
	wf, err := wolves.NewWorkflowBuilder("etl").
		AddTask("extractA").
		AddTask("extractB").
		AddTask("cleanA").
		AddTask("cleanB").
		AddTask("loadA").
		AddTask("loadB").
		AddEdge("extractA", "cleanA").
		AddEdge("extractB", "cleanB").
		AddEdge("cleanA", "loadA").
		AddEdge("cleanB", "loadB").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// A view that bundles the two cleaners. cleanA never reaches cleanB,
	// so the composite violates Definition 2.3 — and the view invents
	// paths between the two lanes.
	v, err := wolves.ViewFromAssignments(wf, "etl-stages", map[string][]string{
		"srcA":  {"extractA"},
		"srcB":  {"extractB"},
		"clean": {"cleanA", "cleanB"},
		"outA":  {"loadA"},
		"outB":  {"loadB"},
	})
	if err != nil {
		log.Fatal(err)
	}

	eng := wolves.NewEngine()
	ctx := context.Background()
	fmt.Println("--- validation ---")
	if err := wolves.Summary(os.Stdout, eng.Oracle(wf), v); err != nil {
		log.Fatal(err)
	}

	// Why it matters: the view now claims srcA feeds outB (via the
	// bundled composite) although no such dataflow exists.
	audit := wolves.AuditProvenance(wolves.NewLineageEngine(wf), v)
	fmt.Printf("\nprovenance audit: false pairs=%d, wrong queries=%d of %d, precision=%.2f\n\n",
		audit.FalsePairs, audit.WrongQueries, audit.Composites, audit.Precision)

	for _, crit := range []wolves.Criterion{wolves.Weak, wolves.Strong, wolves.Optimal} {
		fixed, err := eng.Correct(ctx, wf, v, crit)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- corrected with %s (%d → %d composites) ---\n",
			crit, fixed.CompositesBefore, fixed.CompositesAfter)
		fmt.Print(fixed.Corrected.Describe())
		audit := wolves.AuditProvenance(wolves.NewLineageEngine(wf), fixed.Corrected)
		fmt.Printf("provenance audit after: false pairs=%d, precision=%.2f\n\n",
			audit.FalsePairs, audit.Precision)
	}
}
