package serve

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"sync"

	"ugs"
)

// WorldCache is the cross-request sampled-world cache: a byte-bounded LRU
// of deterministic 64-lane fill blocks, keyed by (content-versioned graph
// ID, base seed, block index) through ugs.FillKey. The Monte-Carlo batch
// engine asks it for every full block of a run, so concurrent mixed query
// traffic — reliability, distance and connectivity requests over the same
// (graph, seed) stream, at any lane width — shares the transposed masks
// of every world group it asks for more than once. Because blocks are pure
// functions of their key, a hit is bit-identical to a fresh sample; the
// cache changes cost, never results.
//
// A block is kept only from its key's second request. A doorkeeper (the
// admission filter of TinyLFU, Einziger, Friedman & Manes, ACM TOS 2017)
// remembers keys requested once: a key's first request fills and returns
// its block without keeping it, its second fills and keeps it, and later
// ones hit. So a one-shot stream, such as a query with a fresh seed, never
// occupies the budget, however much room is free.
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

	// seen is the doorkeeper: direct-mapped 64-bit hashes of keys
	// requested once, a colliding key overwriting its slot.
	seen     [seenSlots]uint64
	seenSeed maphash.Seed

	hits, misses, declined, evictions, purged int64
}

// seenSlots sizes the doorkeeper. Its 4,096 slots take 32 KB, under 1% of
// the 4 MB live heap of a server answering mostly from its query cache (the
// benchmark's query_hot workload, whose heap bound is 10%). A key is
// remembered across about 4,096 other first requests. Forgetting one costs
// a single extra fill, never a wrong answer: the block is kept a request
// later.
const seenSlots = 4096

type worldEntry struct {
	key   ugs.FillKey
	block []uint64
}

// NewWorldCache returns a cache bounded to budgetBytes of block payload.
func NewWorldCache(budgetBytes int64) *WorldCache {
	return &WorldCache{
		budget:   budgetBytes,
		lru:      list.New(),
		entries:  make(map[ugs.FillKey]*list.Element),
		seenSeed: maphash.MakeSeed(),
	}
}

// GetOrFill implements ugs.FillCache: it returns the cached block for key
// or runs fill and returns its result, keeping it only when key was
// requested before (see WorldCache). A declined fill counts as a miss and
// under declined; its block becomes garbage once the caller's run ends.
// fill runs outside the lock, so concurrent misses on the same key may each
// sample the block — both produce identical bits (fills are deterministic),
// at most one copy is retained, and unrelated keys are never serialized
// behind a slow fill.
func (c *WorldCache) GetOrFill(key ugs.FillKey, fill func() []uint64) []uint64 {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*worldEntry).block
	}
	c.misses++
	keep := c.seenBeforeLocked(key)
	c.mu.Unlock()

	block := fill()
	size := int64(len(block)) * 8

	c.mu.Lock()
	if !keep || size > c.budget {
		// A first request, or a block too big to ever cache.
		c.declined++
		c.mu.Unlock()
		return block
	}
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

// seenBeforeLocked is the doorkeeper: it reports whether key's tag holds
// its slot, and records it there if not. Callers hold c.mu.
func (c *WorldCache) seenBeforeLocked(key ugs.FillKey) bool {
	tag := c.tag(key)
	slot := &c.seen[tag%seenSlots]
	if *slot == tag {
		return true
	}
	*slot = tag
	return false
}

// tag is key's doorkeeper hash: a maphash of its (graph, seed) stream plus
// the block index. Its low bits pick the slot, so the consecutive blocks of
// one stream take consecutive slots, and a run, which asks for far fewer
// than seenSlots blocks, never overwrites its own first requests.
func (c *WorldCache) tag(key ugs.FillKey) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seenSeed)
	h.WriteString(key.Graph)
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(key.Seed))
	h.Write(seed[:])
	return h.Sum64() + uint64(key.Block)
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
	// Misses counts fills, kept or not; Declined counts the fills returned
	// without being kept: a key's first request, or a block over budget.
	Misses    int64 `json:"misses"`
	Declined  int64 `json:"declined"`
	Evictions int64 `json:"evictions"`
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
		Declined:    c.declined,
		Evictions:   c.evictions,
		Purged:      c.purged,
	}
}
