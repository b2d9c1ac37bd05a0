package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"wolves/internal/soundness"
	"wolves/internal/workflow"
)

// CacheStats is a snapshot of the oracle cache's counters. The cache is
// a plain LRU over the workflows of stateless requests, keyed by
// fingerprint; the live registry never populates it. Builds counts
// closure constructions (the expensive part a hit avoids): a cache-hit
// Validate leaves Builds untouched.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Builds    int64 `json:"builds"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// cacheEntry holds the per-workflow derived state. The oracle is
// constructed under the entry's own sync.Once, so concurrent requests
// for the same workflow build it at most once without serializing the
// whole cache.
type cacheEntry struct {
	fp string

	oracleOnce sync.Once
	oracle     *soundness.Oracle

	// wf is the workflow the entry was built from. Structurally identical
	// workflows (equal fingerprints) share the entry.
	wf *workflow.Workflow
}

// oracleCache is an LRU of cacheEntry keyed by workflow fingerprint.
type oracleCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // fp → element holding *cacheEntry
	order    *list.List               // front = most recently used

	hits, misses, builds, evictions atomic.Int64
}

func newOracleCache(capacity int) *oracleCache {
	return &oracleCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// get returns the entry for wf, creating (and possibly evicting) as
// needed. The expensive closure build happens outside the cache lock,
// guarded by the entry's sync.Once.
func (c *oracleCache) get(wf *workflow.Workflow) *cacheEntry {
	fp := wf.Fingerprint()
	if c.capacity <= 0 {
		// Caching disabled: fresh entry per call.
		c.misses.Add(1)
		return &cacheEntry{fp: fp, wf: wf}
	}
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*cacheEntry)
	}
	e := &cacheEntry{fp: fp, wf: wf}
	el := c.order.PushFront(e)
	c.entries[fp] = el
	for c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).fp)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return e
}

// oracleFor returns the (lazily built) soundness oracle of the entry.
func (c *oracleCache) oracleFor(e *cacheEntry) *soundness.Oracle {
	e.oracleOnce.Do(func() {
		c.builds.Add(1)
		e.oracle = soundness.NewOracle(e.wf)
	})
	return e.oracle
}

func (c *oracleCache) stats() CacheStats {
	c.mu.Lock()
	size := c.order.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Builds:    c.builds.Load(),
		Evictions: c.evictions.Load(),
		Size:      size,
		Capacity:  c.capacity,
	}
}
