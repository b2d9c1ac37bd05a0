// Command wolvestables regenerates every table and figure-series of the
// WOLVES evaluation (experiment index in DESIGN.md §3; measured results
// in EXPERIMENTS.md).
//
// Usage:
//
//	wolvestables              # run all experiments (full sweeps)
//	wolvestables -fast        # trimmed sweeps (seconds, CI-friendly)
//	wolvestables -exp e4      # one experiment
//	wolvestables -md          # markdown output (for EXPERIMENTS.md)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"wolves/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wolvestables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (e1..e9, a1, a2) or 'all'")
	fast := fs.Bool("fast", false, "trimmed sweeps")
	md := fs.Bool("md", false, "markdown output")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx := context.Background()
	var tables []*experiments.Table
	if *exp == "all" {
		tables = experiments.All(ctx, *fast)
	} else {
		t, err := experiments.ByID(ctx, *exp, *fast)
		if err != nil {
			fmt.Fprintln(stderr, "wolvestables:", err)
			return 1
		}
		tables = []*experiments.Table{t}
	}
	for _, t := range tables {
		var err error
		if *md {
			err = t.Markdown(stdout)
		} else {
			err = t.Render(stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "wolvestables:", err)
			return 1
		}
	}
	return 0
}
