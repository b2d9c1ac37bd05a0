// Repository audit: reproduce the paper's survey finding ("our survey of
// workflow designs in a well-curated workflow repository revealed
// unsound views") over the simulated repository, then repair every
// unsound view and compare the split-based corrector with the merge-up
// extension.
package main

import (
	"context"
	"fmt"
	"log"

	"wolves"
)

func main() {
	log.SetFlags(0)
	fmt.Printf("%-22s %-26s %-9s %-28s\n", "WORKFLOW", "VIEW", "STATUS", "CORRECTION (strong | merge-up)")

	eng := wolves.NewEngine()
	ctx := context.Background()
	totalViews, unsoundViews := 0, 0
	for _, entry := range wolves.Repository() {
		oracle := eng.Oracle(entry.Workflow)
		sound := func(v *wolves.View) bool {
			report, err := eng.ValidateWithOracle(ctx, oracle, v)
			if err != nil {
				log.Fatal(err)
			}
			return report.Sound
		}
		for _, vs := range entry.Views {
			totalViews++
			if sound(vs.View) {
				fmt.Printf("%-22s %-26s %-9s\n", entry.Key, vs.View.Name(), "sound")
				continue
			}
			unsoundViews++

			split, err := eng.CorrectWithOracle(ctx, oracle, vs.View, wolves.Strong, nil)
			if err != nil {
				log.Fatal(err)
			}
			merged, err := wolves.MergeUp(oracle, vs.View)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-22s %-26s %-9s %d → %d composites | %d → %d composites\n",
				entry.Key, vs.View.Name(), "UNSOUND",
				split.CompositesBefore, split.CompositesAfter,
				merged.CompositesBefore, merged.CompositesAfter)

			// Both corrections must validate clean.
			if !sound(split.Corrected) {
				log.Fatalf("%s: split correction failed", vs.View.Name())
			}
			if !sound(merged.Corrected) {
				log.Fatalf("%s: merge-up correction failed", vs.View.Name())
			}
		}
	}
	fmt.Printf("\nsurvey: %d of %d views unsound — splitting preserves provenance detail;\n"+
		"merge-up always coarsens (the paper's argument for split-based correction)\n",
		unsoundViews, totalViews)
}
