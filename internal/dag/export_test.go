package dag

// CheckAgainstScratch exports checkAgainstScratch to the external tests.
var CheckAgainstScratch = checkAgainstScratch

// RowCensus tallies, over the checks of IncrementalClosure histories,
// the label rows of each container (a component's shared row once, both
// directions) and the rows Patch moved from one container to the other
// between two checks of the same built pair.
type RowCensus struct {
	Runs, Bitmaps    int
	ToBitmap, ToRuns int

	ic     *IncrementalClosure
	builds int64
	last   [2]*Labels // forks of the pair at the last Observe
}

// Observe counts ic's rows, and the rows whose container changed since
// the last Observe of the same ic that no rebuild has replaced since.
func (c *RowCensus) Observe(ic *IncrementalClosure) {
	same := c.ic == ic && c.builds == ic.labelBuilds
	for i, l := range []*Labels{ic.labels, ic.revLabels} {
		runs, bitmaps := rowKinds(l)
		c.Runs, c.Bitmaps = c.Runs+runs, c.Bitmaps+bitmaps
		for u := 0; same && u < c.last[i].N(); u++ {
			switch was, is := isBitmap(c.last[i].rows[u]), isBitmap(l.rows[u]); {
			case is && !was:
				c.ToBitmap++
			case was && !is:
				c.ToRuns++
			}
		}
		c.last[i] = l.Fork()
	}
	c.ic, c.builds = ic, ic.labelBuilds
}
