// Phylogenomics: the paper's Figure 1 case study end to end.
//
// The workflow infers protein biological function; the expert view of
// Figure 1(b) bundles "curate annotations" (4) and "create alignment"
// (7) into composite 16, which is unsound: 4 receives external input but
// never reaches 7's output. A user checking the provenance of the
// formatted alignment (composite 18) is then wrongly told that the
// annotation branch (composite 14) contributed to it.
//
// The program detects the problem, shows the wrong provenance answer,
// corrects the view, and writes before/after DOT renderings to stdout
// paths given as arguments (or skips files with none).
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
	wf, v := wolves.Figure1()
	eng := wolves.NewEngine()
	ctx := context.Background()
	oracle := eng.Oracle(wf)

	fmt.Println("=== Figure 1(b) view ===")
	if err := wolves.Summary(os.Stdout, oracle, v); err != nil {
		log.Fatal(err)
	}

	// The wrong provenance answer, exactly as §1 describes.
	engine := wolves.NewLineageEngine(wf)
	viewEngine := wolves.NewViewLineageEngine(v)
	c18, _ := v.CompIndex("18")
	fmt.Println("\nprovenance of composite 18's output (view level):")
	for _, ci := range viewEngine.CompositeLineage(c18) {
		fmt.Printf("  composite %s\n", v.Composite(ci).ID)
	}
	t8 := wf.MustIndex("8")
	t3 := wf.MustIndex("3")
	fmt.Printf("\nground truth: does task 3 (in 14) reach task 8 (in 18)? %v\n",
		engine.Reaches(t3, t8))
	audit := wolves.AuditProvenance(engine, v)
	fmt.Printf("audit: %d false provenance pairs, precision %.2f\n\n",
		audit.FalsePairs, audit.Precision)

	// Correct with the strongly local optimal corrector.
	fixed, err := eng.Correct(ctx, wf, v, wolves.Strong)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== corrected view (%d → %d composites) ===\n",
		fixed.CompositesBefore, fixed.CompositesAfter)
	if err := wolves.Summary(os.Stdout, oracle, fixed.Corrected); err != nil {
		log.Fatal(err)
	}
	audit2 := wolves.AuditProvenance(engine, fixed.Corrected)
	fmt.Printf("\naudit after correction: %d false pairs, precision %.2f\n",
		audit2.FalsePairs, audit2.Precision)

	// Optional DOT outputs: phylogenomics <before.dot> <after.dot>.
	if len(os.Args) >= 3 {
		writeDOT(ctx, eng, os.Args[1], wf, v)
		writeDOT(ctx, eng, os.Args[2], wf, fixed.Corrected)
		fmt.Printf("\nwrote %s and %s (render with graphviz)\n", os.Args[1], os.Args[2])
	}
}

func writeDOT(ctx context.Context, eng *wolves.Engine, path string, wf *wolves.Workflow, v *wolves.View) {
	rep, err := eng.Validate(ctx, wf, v)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	opts := &wolves.DisplayOptions{Report: rep}
	if err := wolves.WorkflowDOT(f, wf, v, opts); err != nil {
		log.Fatal(err)
	}
}
