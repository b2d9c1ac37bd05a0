// Package core implements the Unsound View Corrector of WOLVES: the
// paper's primary contribution. An unsound composite task is resolved by
// splitting it into sound blocks under one of three criteria:
//
//   - Weak local optimality (Definition 2.5): no two result blocks are
//     combinable. Greedy pair merging; polynomial.
//   - Strong local optimality (Definition 2.6): no subset of result
//     blocks is combinable. Pair merging plus ancestor/descendant
//     closures plus a seeded conflict-closure search; polynomial. The
//     StrongAudited variant additionally runs the exhaustive
//     Definition-2.6 auditor and merges anything it finds, upgrading the
//     empirical guarantee to an unconditional one.
//   - Optimality: the minimum number of sound blocks (NP-hard, Theorem
//     2.2), via a subset dynamic program that is exact up to
//     Options.OptimalLimit tasks.
//
// Splitting one composite never affects the soundness of any other
// composite (a block's soundness depends only on its member set and the
// workflow), so CorrectViewCtx repairs a whole view by splitting each
// unsound composite independently.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"wolves/internal/bitset"
	"wolves/internal/soundness"
)

// Criterion selects a correction algorithm.
type Criterion int

const (
	// Weak is the weakly local optimal corrector (Definition 2.5).
	Weak Criterion = iota
	// Strong is the strongly local optimal corrector (Definition 2.6,
	// polynomial reconstruction; audited empirically).
	Strong
	// StrongAudited is Strong plus the exhaustive subset auditor; its
	// output is unconditionally strongly local optimal (and Audited is
	// set) whenever the block count is within Options.AuditLimit.
	StrongAudited
	// Optimal is the exact minimum split (exponential subset DP).
	Optimal
)

// String names the criterion as in the demo UI.
func (c Criterion) String() string {
	switch c {
	case Weak:
		return "weak-local-optimal"
	case Strong:
		return "strong-local-optimal"
	case StrongAudited:
		return "strong-local-optimal-audited"
	case Optimal:
		return "optimal"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// ParseCriterion maps CLI names to criteria.
func ParseCriterion(s string) (Criterion, error) {
	switch s {
	case "weak":
		return Weak, nil
	case "strong":
		return Strong, nil
	case "strong-audited", "audited":
		return StrongAudited, nil
	case "optimal":
		return Optimal, nil
	}
	return 0, fmt.Errorf("core: unknown criterion %q (want weak|strong|strong-audited|optimal)", s)
}

// Options tunes the correctors.
type Options struct {
	// OptimalLimit caps the composite size accepted by the Optimal
	// corrector (the DP allocates 2^n state). Zero means the default of
	// 20; a negative limit explicitly rejects every composite (the
	// Optimal corrector then always returns ErrOptimalLimit).
	OptimalLimit int
	// AuditLimit caps the block count for exhaustive Definition-2.6
	// audits. Zero means the default of 22; a negative limit explicitly
	// disables the audit (StrongAudited then never sets Audited).
	AuditLimit int
}

// DefaultOptions returns the documented defaults.
func DefaultOptions() *Options { return &Options{OptimalLimit: 20, AuditLimit: 22} }

// withDefaults substitutes defaults for unset (zero) fields only.
// Explicitly-set values — including small and negative limits — pass
// through untouched, so a caller who asks for a tight cap gets that cap
// instead of a silent reset to the default.
func (o *Options) withDefaults() Options {
	out := Options{OptimalLimit: 20, AuditLimit: 22}
	if o != nil {
		if o.OptimalLimit != 0 {
			out.OptimalLimit = o.OptimalLimit
		}
		if o.AuditLimit != 0 {
			out.AuditLimit = o.AuditLimit
		}
	}
	return out
}

// Stats instruments a correction run.
type Stats struct {
	SoundChecks int           // soundness-oracle queries
	Merges      int           // block merges performed
	ClosureRuns int           // seeded closure searches attempted
	Elapsed     time.Duration // wall-clock time of the split
}

// Result is the outcome of splitting one composite task.
type Result struct {
	Criterion Criterion
	// Blocks partition the input member set; each block is sound.
	// Blocks are sorted internally and ordered by smallest member.
	Blocks [][]int
	// Audited reports that strong local optimality was verified (or
	// enforced) exhaustively.
	Audited bool
	Stats   Stats
}

// ErrOptimalLimit is returned when the composite exceeds OptimalLimit.
var ErrOptimalLimit = errors.New("core: composite too large for the optimal corrector")

// ErrCanceled wraps a context cancellation observed inside a corrector;
// errors.Is(err, context.Canceled) (or context.DeadlineExceeded) also
// matches, since the context's own error is wrapped alongside.
var ErrCanceled = errors.New("core: correction canceled")

// canceledErr builds the error returned when ctx fires mid-correction.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// SplitTaskCtx splits the given member set (the atomic tasks of one
// composite) into sound blocks under the chosen criterion. A member set
// that is already sound is returned as a single block under every
// criterion.
//
// Cancellation is cooperative. The polynomial phases poll ctx between
// merge passes; the exponential
// phases (the Optimal subset DP and the StrongAudited exhaustive
// auditor) poll it inside their enumeration loops every few thousand
// states, so even a 2^20-state run aborts within milliseconds of ctx
// firing. A canceled run returns an error wrapping both ErrCanceled and
// the context's own error, and no partial result.
func SplitTaskCtx(ctx context.Context, o *soundness.Oracle, members []int, crit Criterion, opts *Options) (*Result, error) {
	if len(members) == 0 {
		return nil, errors.New("core: empty member set")
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	opt := opts.withDefaults()
	start := time.Now()
	checks0 := o.Checks()
	res := &Result{Criterion: crit}

	if sound, _ := o.SoundSlice(members); sound {
		blk := append([]int(nil), members...)
		sort.Ints(blk)
		res.Blocks = [][]int{blk}
		res.Audited = true
		res.Stats.SoundChecks = o.Checks() - checks0
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}

	switch crit {
	case Weak:
		p := newPartitioner(o, members)
		p.ctx = ctx
		p.weakPass()
		if err := p.err(); err != nil {
			return nil, err
		}
		res.Blocks = p.blocks()
		res.Stats = p.stats
	case Strong, StrongAudited:
		p := newPartitioner(o, members)
		p.ctx = ctx
		p.strongFixpoint()
		if crit == StrongAudited && p.err() == nil {
			complete := p.exhaustivePhase(opt.AuditLimit)
			res.Audited = complete
		}
		if err := p.err(); err != nil {
			return nil, err
		}
		res.Blocks = p.blocks()
		res.Stats = p.stats
	case Optimal:
		blocks, err := optimalSplit(ctx, o, members, opt.OptimalLimit)
		if err != nil {
			return nil, err
		}
		res.Blocks = blocks
		res.Audited = true
	default:
		return nil, fmt.Errorf("core: unknown criterion %v", crit)
	}
	res.Stats.SoundChecks = o.Checks() - checks0
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// partitioner maintains a partition of one composite's members into
// blocks (bitsets over workflow task indices) and implements the merge
// phases shared by the weak and strong correctors. Its per-split state
// is flat: the block sets are rows of one matrix, the work buffers are
// carved from one slab, and the lazily computed doom sets are rows of
// another matrix, so a split makes a fixed number of allocations
// whatever the composite's size.
type partitioner struct {
	o *soundness.Oracle
	// ctx carries cooperative cancellation into the merge phases; nil
	// means "never canceled". stopped latches the first observation so
	// every later phase exits immediately.
	ctx       context.Context
	stopped   bool
	n         int // workflow size
	memberSet *bitset.Set
	members   []int // ascending
	// blockSets[id] is block id's member set, a RowView of blockRows.
	// The block-id space is fixed at len(members): block id starts as
	// the singleton of members[id], and merges only retire ids.
	blockRows *bitset.Matrix
	blockSets []bitset.Set
	blockOf   []int // workflow task index → block id (members only)
	alive     []bool
	aliveN    int
	stats     Stats
	scratch   *bitset.Set
	// Reusable scratch state for the merge phases (see strong.go), each
	// buffer carved from one slab with len(members) capacity: none
	// holds more than one entry per member or block.
	idMark     *bitset.Set // block-id marks: closedPhase union, growSeed union ids
	idSeen     *bitset.Set // block-id marks: blockClosure visited set
	unionSet   *bitset.Set // growSeed candidate union over task indices
	nodeQueue  []int       // blockClosure work queue
	closureIDs []int       // blockClosure result buffer
	phaseIDs   []int       // closedPhase union buffer
	growIDs    []int       // growSeed merged-id buffer
	inBuf      []int       // InOutAppend buffers for growSeed
	outBuf     []int
	insBuf     []int // interfaceNodes buffers
	outsBuf    []int
	selBuf     []int // exhaustivePhase subset buffer
	// A doom row marks the members whose forced close-in cascade
	// towards a committed out-node t provably escapes the composite
	// (doomedIn), or the successor-side dual for a committed in-node s
	// (doomedOut). Both depend only on the member set, so they are
	// cached for the whole split, as rows of doomRows: doomCap rows, a
	// bound the first seeded scan sets. doomAt[t] names the row
	// (1-based; 0 = not yet computed) of the close-in side of task t,
	// doomAt[n+t] that of its dual side; doomSets holds the filled
	// rows' RowViews. See strong.go.
	doomCap  int
	doomRows *bitset.Matrix
	doomSets []bitset.Set
	doomAt   []int32
	topo     []int // members in workflow topological order
}

// partitionerBuffers is the number of work buffers carved from the
// partitioner's slab.
const partitionerBuffers = 10

func newPartitioner(o *soundness.Oracle, members []int) *partitioner {
	n, m := o.Workflow().N(), len(members)
	slab := make([]int, (partitionerBuffers+1)*m)
	buf := func(i int) []int { return slab[i*m : i*m : (i+1)*m] }
	p := &partitioner{
		o:          o,
		n:          n,
		memberSet:  bitset.New(n),
		members:    append(buf(0), members...),
		blockRows:  bitset.NewMatrix(m, n),
		blockSets:  make([]bitset.Set, m),
		blockOf:    make([]int, n),
		alive:      make([]bool, m),
		aliveN:     m,
		scratch:    bitset.New(n),
		unionSet:   bitset.New(n),
		idMark:     bitset.New(m),
		idSeen:     bitset.New(m),
		nodeQueue:  buf(1),
		closureIDs: buf(2),
		phaseIDs:   buf(3),
		growIDs:    buf(4),
		inBuf:      buf(5),
		outBuf:     buf(6),
		insBuf:     buf(7),
		outsBuf:    buf(8),
		selBuf:     buf(9),
		topo:       slab[partitionerBuffers*m : partitionerBuffers*m : (partitionerBuffers+1)*m],
	}
	for i := range p.blockOf {
		p.blockOf[i] = -1
	}
	sort.Ints(p.members)
	for id, t := range p.members {
		p.memberSet.Set(t)
		p.blockRows.SetBit(id, t)
		p.blockSets[id] = p.blockRows.RowView(id)
		p.blockOf[t] = id
		p.alive[id] = true
	}
	// Order the members topologically over the edges among them (Kahn,
	// with p.topo as the queue and selBuf lent for the in-degrees): a
	// doom set reads only member predecessors, so any such order gives
	// the same sets.
	g, indeg := o.Workflow().Graph(), p.selBuf[:m]
	clear(indeg)
	for _, t := range p.members {
		for _, s := range g.Succs(t) {
			if id := p.blockOf[s]; id >= 0 {
				indeg[id]++
			}
		}
	}
	for id, t := range p.members {
		if indeg[id] == 0 {
			p.topo = append(p.topo, t)
		}
	}
	for i := 0; i < len(p.topo); i++ {
		for _, s := range g.Succs(p.topo[i]) {
			if id := p.blockOf[s]; id >= 0 {
				if indeg[id]--; indeg[id] == 0 {
					p.topo = append(p.topo, int(s))
				}
			}
		}
	}
	return p
}

// block returns block id's member set.
func (p *partitioner) block(id int) *bitset.Set { return &p.blockSets[id] }

// unionSound tests whether the union of the listed blocks is sound.
func (p *partitioner) unionSound(ids ...int) bool {
	p.scratch.Reset()
	for _, id := range ids {
		p.scratch.Or(p.block(id))
	}
	return p.o.SetSoundQuick(p.scratch)
}

// pairSound is unionSound for exactly two blocks without the variadic
// slice allocation (the weak corrector probes O(k²) pairs).
func (p *partitioner) pairSound(i, j int) bool {
	p.scratch.CopyFrom(p.block(i))
	p.scratch.Or(p.block(j))
	return p.o.SetSoundQuick(p.scratch)
}

// mergeBlocks folds the listed blocks into the lowest id among them.
func (p *partitioner) mergeBlocks(ids []int) int {
	target := ids[0]
	for _, id := range ids[1:] {
		if id < target {
			target = id
		}
	}
	for _, id := range ids {
		if id == target || !p.alive[id] {
			continue
		}
		p.block(id).ForEach(func(t int) bool {
			p.blockOf[t] = target
			return true
		})
		p.block(target).Or(p.block(id))
		p.alive[id] = false
		p.aliveN--
		p.stats.Merges++
	}
	return target
}

// canceled reports (and latches) whether the partitioner's context has
// fired. Phases poll it at loop boundaries and unwind without merging
// further.
func (p *partitioner) canceled() bool {
	if p.stopped {
		return true
	}
	if p.ctx != nil && p.ctx.Err() != nil {
		p.stopped = true
		return true
	}
	return false
}

// err returns the cancellation error once canceled() has latched.
func (p *partitioner) err() error {
	if !p.stopped {
		return nil
	}
	return canceledErr(p.ctx)
}

// weakPass greedily merges combinable pairs until none remain, yielding
// a weakly local optimal partition. Returns whether anything merged.
func (p *partitioner) weakPass() bool {
	changed := false
	for {
		if p.canceled() {
			return changed
		}
		merged := false
		for i := 0; i < len(p.blockSets); i++ {
			if !p.alive[i] {
				continue
			}
			for j := i + 1; j < len(p.blockSets); j++ {
				if !p.alive[j] {
					continue
				}
				if p.pairSound(i, j) {
					p.mergeBlocks([]int{i, j})
					merged = true
					changed = true
				}
			}
		}
		if !merged {
			return changed
		}
	}
}

// blocks returns the partition as sorted member slices, ordered by
// smallest member, carved from one array. Scanning the members in
// ascending order meets every block first at its smallest member.
func (p *partitioner) blocks() [][]int {
	flat := make([]int, 0, len(p.members))
	out := make([][]int, 0, p.aliveN)
	seen := p.idSeen
	seen.Reset()
	for _, t := range p.members {
		id := p.blockOf[t]
		if seen.Test(id) {
			continue
		}
		seen.Set(id)
		lo := len(flat)
		blk := p.block(id)
		for x := blk.NextSet(t); x != -1; x = blk.NextSet(x + 1) {
			flat = append(flat, x)
		}
		out = append(out, flat[lo:len(flat):len(flat)])
	}
	return out
}

// aliveIDs returns the ids of live blocks, ascending.
func (p *partitioner) aliveIDs() []int {
	out := make([]int, 0, p.aliveN)
	for id := range p.blockSets {
		if p.alive[id] {
			out = append(out, id)
		}
	}
	return out
}
