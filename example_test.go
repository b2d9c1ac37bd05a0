package wolves_test

import (
	"context"
	"fmt"

	"wolves"
)

// The Figure 1 case study in four lines: load, validate, read the
// witness, correct.
func ExampleEngine_Validate() {
	wf, v := wolves.Figure1()
	eng := wolves.NewEngine()
	report, _ := eng.Validate(context.Background(), wf, v)
	fmt.Println("sound:", report.Sound)
	for _, ci := range report.Unsound {
		cr := report.Composites[ci]
		fmt.Printf("composite %s: %s\n", cr.ID,
			wolves.DescribeViolation(wf, cr.Violations[0]))
	}
	// Output:
	// sound: false
	// composite 16: 4 ∈ T.in cannot reach 7 ∈ T.out
}

func ExampleEngine_Correct() {
	wf, v := wolves.Figure1()
	eng := wolves.NewEngine()
	ctx := context.Background()
	fixed, _ := eng.Correct(ctx, wf, v, wolves.Strong)
	fmt.Println("composites:", fixed.CompositesBefore, "→", fixed.CompositesAfter)
	report, _ := eng.Validate(ctx, wf, fixed.Corrected)
	fmt.Println("sound now:", report.Sound)
	// Output:
	// composites: 7 → 8
	// sound now: true
}

// The Figure 3 running example: the weak corrector stalls at 8 blocks,
// the strong corrector reaches 5.
func ExampleEngine_SplitTask() {
	f := wolves.Figure3()
	eng := wolves.NewEngine()
	ctx := context.Background()
	weak, _ := eng.SplitTask(ctx, f.Workflow, f.T, wolves.Weak)
	strong, _ := eng.SplitTask(ctx, f.Workflow, f.T, wolves.Strong)
	fmt.Println("weak blocks:", len(weak.Blocks))
	fmt.Println("strong blocks:", len(strong.Blocks))
	// Output:
	// weak blocks: 8
	// strong blocks: 5
}

// Unsound views corrupt provenance: the audit counts the spurious
// dependency pairs a view invents.
func ExampleAuditProvenance() {
	wf, v := wolves.Figure1()
	engine := wolves.NewLineageEngine(wf)
	audit := wolves.AuditProvenance(engine, v)
	fmt.Println("false pairs:", audit.FalsePairs)
	fmt.Println("missing pairs:", audit.MissingPairs)
	// Output:
	// false pairs: 2
	// missing pairs: 0
}

// The design-time advisor: which tasks can safely join a draft composite?
func ExampleAdvisor() {
	wf, _ := wolves.Figure1()
	advisor := wolves.NewAdvisor(wolves.NewEngine().Oracle(wf))
	draft := []int{wf.MustIndex("4")}
	fmt.Println("can add 5:", advisor.CanAdd(draft, wf.MustIndex("5")))
	fmt.Println("can add 7:", advisor.CanAdd(draft, wf.MustIndex("7")))
	// Output:
	// can add 5: true
	// can add 7: false
}
