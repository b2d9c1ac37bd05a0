// Engine-service: the serving-path example. One long-lived Engine
// validates and corrects every view of the simulated repository as a
// batch over its worker pool, demonstrates the oracle cache (repeated
// workflows build their reachability closure exactly once), and shows
// the cancellation contract of the exponential Optimal corrector.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"wolves"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	eng := wolves.NewEngine(
		wolves.WithWorkers(8),
		wolves.WithOracleCache(64),
		wolves.WithOptimalTimeout(500*time.Millisecond),
	)

	// Fan every repository view through the validator as one batch.
	var jobs []wolves.ValidateJob
	var names []string
	for _, entry := range wolves.Repository() {
		for _, vs := range entry.Views {
			jobs = append(jobs, wolves.ValidateJob{Workflow: entry.Workflow, View: vs.View})
			names = append(names, entry.Key+"/"+vs.View.Name())
		}
	}
	unsoundIdx := -1
	for i, res := range eng.ValidateBatch(ctx, jobs, 0) {
		if res.Err != nil {
			log.Fatalf("%s: %v", names[i], res.Err)
		}
		status := "sound"
		if !res.Report.Sound {
			status = fmt.Sprintf("UNSOUND (%d composites)", len(res.Report.Unsound))
			if unsoundIdx < 0 {
				unsoundIdx = i
			}
		}
		fmt.Printf("%-44s %s\n", names[i], status)
	}

	stats := eng.CacheStats()
	fmt.Printf("\noracle cache: %d builds for %d jobs (%d hits)\n",
		stats.Builds, len(jobs), stats.Hits)

	// Repair the first unsound view through the same Engine.
	if unsoundIdx >= 0 {
		j := jobs[unsoundIdx]
		vc, err := eng.Correct(ctx, j.Workflow, j.View, wolves.Strong)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("corrected %s: %d → %d composites\n",
			names[unsoundIdx], vc.CompositesBefore, vc.CompositesAfter)
	}

	// Cancellation: an already-expired context aborts immediately with a
	// typed, coded error instead of burning CPU on the exponential DP.
	expired, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	wf1, v1 := wolves.Figure1()
	_, err := eng.Correct(expired, wf1, v1, wolves.Optimal)
	var ee *wolves.Error
	if errors.As(err, &ee) {
		fmt.Printf("expired context: code=%s\n", ee.Code)
	}
}
