package dag

// CheckAgainstScratch exports checkAgainstScratch to the external tests.
var CheckAgainstScratch = checkAgainstScratch

// ClosureUnder returns a constructor of incremental closures under the
// label budget labelBudgets names name.
func ClosureUnder(name string) func(*Graph) (*IncrementalClosure, error) {
	for _, lb := range labelBudgets {
		if lb.name == name {
			return func(g *Graph) (*IncrementalClosure, error) { return newIncrementalClosure(g, lb.budget) }
		}
	}
	return nil
}
