// Provenance analysis: execute a two-lane genomics workflow, ask lineage
// questions about a concrete run at both workflow and view level, and
// show how bundling the two compute lanes corrupts the answers while the
// corrected view (and the OPM-style trace) stay truthful.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"wolves"
)

func main() {
	log.SetFlags(0)

	// fetch → split fans into an assembly lane and a mapping lane; each
	// lane has its own QC, heavy compute step, post-processing and
	// publication sink, and both also feed a combined report.
	wf, err := wolves.NewWorkflowBuilder("metagenomics").
		AddTask("fetch").AddTask("split").
		AddTask("qc_asm").AddTask("assemble").AddTask("bin_contigs").AddTask("publish_bins").
		AddTask("qc_map").AddTask("map_reads").AddTask("call_snps").AddTask("publish_vcf").
		AddTask("report").
		AddEdge("fetch", "split").
		Chain("split", "qc_asm", "assemble", "bin_contigs", "publish_bins").
		Chain("split", "qc_map", "map_reads", "call_snps", "publish_vcf").
		AddEdge("bin_contigs", "report").
		AddEdge("call_snps", "report").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow: %v\n", wf)

	// Simulate one execution and export its provenance graph.
	trace := wolves.Execute(wf, "run-2026-06-10")
	art, err := trace.ArtifactOf("call_snps")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution %s produced %d artifacts; SNP output = %s\n\n",
		trace.RunID, len(trace.Artifacts()), art.ID)

	engine := wolves.NewLineageEngine(wf)
	fmt.Println("--- exact lineage (workflow level) ---")
	if err := wolves.Dependencies(os.Stdout, engine, "call_snps"); err != nil {
		log.Fatal(err)
	}

	// A view that bundles the two heavy compute steps into one "compute"
	// composite — unsound, and provenance-visible: the view claims the
	// assembly QC contributed to the published VCF.
	v, err := wolves.ViewFromAssignments(wf, "ops-view", map[string][]string{
		"ingest":  {"fetch", "split"},
		"qcA":     {"qc_asm"},
		"qcB":     {"qc_map"},
		"compute": {"assemble", "map_reads"},
		"postA":   {"bin_contigs", "publish_bins"},
		"postB":   {"call_snps", "publish_vcf"},
		"report":  {"report"},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := wolves.NewEngine()
	ctx := context.Background()
	report, err := eng.Validate(ctx, wf, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nops view sound? %v (unsound composites: %d)\n",
		report.Sound, len(report.Unsound))

	audit := wolves.AuditProvenance(engine, v)
	fmt.Printf("view-level lineage audit: %d false pairs, %d of %d queries wrong, precision %.2f\n",
		audit.FalsePairs, audit.WrongQueries, audit.Composites, audit.Precision)

	// The concrete wrong answer: view-level provenance of call_snps
	// includes the assembly lane's QC.
	ve := wolves.NewViewLineageEngine(v)
	fmt.Print("view lineage of call_snps: ")
	for _, t := range ve.TaskLineage(wf.MustIndex("call_snps")) {
		fmt.Printf("%s ", wf.Task(t).ID)
	}
	fmt.Println()

	// The paper's performance motivation: the view closure is far
	// smaller than the workflow closure.
	fmt.Printf("provenance relation size: %d task pairs vs %d composite pairs\n\n",
		engine.ClosurePairs(), ve.ClosurePairs())

	// Correct and re-audit: precision returns to 1.
	fixed, err := eng.Correct(ctx, wf, v, wolves.Strong)
	if err != nil {
		log.Fatal(err)
	}
	audit2 := wolves.AuditProvenance(engine, fixed.Corrected)
	fmt.Printf("after correction (%d → %d composites): %d false pairs, precision %.2f\n",
		fixed.CompositesBefore, fixed.CompositesAfter, audit2.FalsePairs, audit2.Precision)

	// OPM export of the run (first lines).
	fmt.Println("\n--- OPM trace export (truncated) ---")
	var opm bytes.Buffer
	if err := trace.WriteOPM(&opm); err != nil {
		log.Fatal(err)
	}
	out := opm.String()
	if len(out) > 400 {
		out = out[:400] + "\n..."
	}
	fmt.Println(out)
}
