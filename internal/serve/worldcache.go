package serve

import (
	"container/list"
	"sync"

	"ugs"
)

// WorldCache is the cross-request sampled-world cache: a byte-bounded LRU
// of deterministic 64-lane fill blocks, keyed by (content-versioned graph
// ID, base seed, block index) through ugs.FillKey. The Monte-Carlo batch
// engine asks it for every full block of a run, so concurrent mixed query
// traffic — reliability, distance and connectivity requests over the same
// (graph, seed) stream, at any lane width — re-samples each world group at
// most once and shares the transposed masks from then on. Because blocks
// are pure functions of their key, a hit is bit-identical to a fresh
// sample; the cache changes cost, never results.
//
// Keys embed the versioned graph ID, so a re-uploaded graph never sees a
// predecessor's worlds. The server purges a retired graph's blocks when its
// generation changes; blocks of a graph that is merely evicted from the
// store stay, since its generation survives the reload. live, when set,
// makes a fill that finishes after its graph's purge drop its block again.
type WorldCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List // front = most recently used; values are *worldEntry
	entries map[ugs.FillKey]*list.Element
	live    func(graph string) bool

	hits, misses, evictions, purged int64
}

type worldEntry struct {
	key   ugs.FillKey
	block []uint64
}

// NewWorldCache returns a cache bounded to budgetBytes of block payload.
func NewWorldCache(budgetBytes int64) *WorldCache {
	return &WorldCache{
		budget:  budgetBytes,
		lru:     list.New(),
		entries: make(map[ugs.FillKey]*list.Element),
	}
}

// GetOrFill implements ugs.FillCache: it returns the cached block for key
// or runs fill, stores the result, and returns it. fill runs outside the
// lock, so concurrent misses on the same key may each sample the block —
// both produce identical bits (fills are deterministic), only one copy is
// retained, and unrelated keys are never serialized behind a slow fill.
func (c *WorldCache) GetOrFill(key ugs.FillKey, fill func() []uint64) []uint64 {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*worldEntry).block
	}
	c.misses++
	c.mu.Unlock()

	block := fill()
	size := int64(len(block)) * 8
	if size > c.budget {
		return block // too big to ever cache; serve it uncached
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// A concurrent miss filled the same key first; keep the stored
		// copy and let ours be garbage.
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*worldEntry).block
	}
	c.entries[key] = c.lru.PushFront(&worldEntry{key: key, block: block})
	c.bytes += size
	for c.bytes > c.budget {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
	c.mu.Unlock()
	if c.live != nil && !c.live(key.Graph) {
		// The graph was retired while this block was being sampled, and
		// its purge may already have run: drop the block again.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.removeLocked(el)
			c.purged++
		}
		c.mu.Unlock()
	}
	return block
}

func (c *WorldCache) removeLocked(el *list.Element) {
	e := el.Value.(*worldEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.block)) * 8
}

// purge removes every block whose graph match selects. It scans the whole
// LRU under the lock; match must not block.
func (c *WorldCache) purge(match func(graph string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*worldEntry).key.Graph) {
			c.removeLocked(el)
			c.purged++
		}
		el = next
	}
}

// WorldCacheStats is a point-in-time snapshot of the cache counters.
type WorldCacheStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	// Purged counts blocks removed because their graph was retired;
	// Evictions counts budget pressure only.
	Purged int64 `json:"purged"`
}

// Stats snapshots the cache counters.
func (c *WorldCache) Stats() WorldCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WorldCacheStats{
		Entries:     len(c.entries),
		Bytes:       c.bytes,
		BudgetBytes: c.budget,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Purged:      c.purged,
	}
}
