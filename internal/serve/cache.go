package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a fixed-capacity LRU of computed values with singleflight
// admission: concurrent Do calls for the same key share one computation
// instead of racing to compute it in parallel. It is the mechanism behind
// the service's O(1) repeat-sparsify path — a hit returns the resident
// result without touching the sparsifier core at all.
//
// A non-positive capacity disables retention (every Do recomputes) but keeps
// the singleflight sharing, which is useful for tests and for callers that
// only want request coalescing.
//
// Keys embed the versioned ID of the graph a value was computed from, so an
// entry of a retired graph can never be hit; the owner removes such entries
// with purge to free their memory. live, when set, closes the race with an
// in-flight computation: after Do or Replace inserts and unlocks, an entry
// whose graph is no longer live is removed again, so a computation that
// finishes after its graph's purge leaves nothing behind.
type Cache[V any] struct {
	capacity int
	onEvict  func(key string, val V)
	live     func(val V) bool

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]

	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	evictions atomic.Int64
	purged    atomic.Int64
}

type cacheEntry[V any] struct {
	key string
	val V
}

// flight is one in-progress computation; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCache returns a cache holding at most capacity values.
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// OnEvict installs a callback invoked (outside the cache lock) for every key
// that leaves the cache on its own: dropped by LRU pressure, or removed right
// after insertion because its graph is no longer live. A value Replace
// overwrites under a key that stays resident is not reported, and neither
// are entries removed by purge (the purging caller knows them). Install
// before first use.
func (c *Cache[V]) OnEvict(fn func(key string, val V)) { c.onEvict = fn }

// Get returns the cached value for key, refreshing its recency. It never
// computes and does not join in-flight computations.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		return elem.Value.(*cacheEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for key, computing it at most once across concurrent
// callers: a resident entry is returned immediately (cached = true); if the
// key is already being computed the caller waits for that flight's result;
// otherwise the caller runs compute itself and the successful result is
// inserted.
//
// compute runs without the cache lock held and should derive its lifetime
// from a server-scoped context rather than ctx: ctx only bounds this
// caller's wait, so a caller that gives up leaves the shared computation
// running for the others (and for the cache). Errors are not cached.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (val V, cached bool, err error) {
	var zero V
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		c.ll.MoveToFront(elem)
		v := elem.Value.(*cacheEntry[V]).val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.shared.Add(1)
		select {
		case <-f.done:
			return f.val, false, f.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = compute()
	var evicted []cacheEntry[V]
	inserted := f.err == nil && c.capacity > 0
	c.mu.Lock()
	delete(c.inflight, key)
	if inserted {
		c.entries[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: f.val})
		evicted = c.trimLocked()
	}
	c.mu.Unlock()
	close(f.done)
	c.evicted(evicted)
	if inserted {
		c.dropIfDead(key, f.val)
	}
	return f.val, false, f.err
}

// trimLocked drops least-recently-used entries beyond capacity and returns
// them for the eviction callback. Callers hold c.mu.
func (c *Cache[V]) trimLocked() []cacheEntry[V] {
	var evicted []cacheEntry[V]
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry[V])
		c.ll.Remove(oldest)
		delete(c.entries, e.key)
		evicted = append(evicted, *e)
	}
	return evicted
}

// evicted counts LRU-pressure drops and reports them to the callback.
func (c *Cache[V]) evicted(es []cacheEntry[V]) {
	c.evictions.Add(int64(len(es)))
	if c.onEvict != nil {
		for _, e := range es {
			c.onEvict(e.key, e.val)
		}
	}
}

// dropIfDead is the post-insert liveness check: it removes key again when
// val's graph was retired while val was being computed. It runs without
// c.mu, so live may take other locks. Any value resident under key was
// computed from the same graph (keys embed its versioned ID), so removal by
// key is exact.
func (c *Cache[V]) dropIfDead(key string, val V) {
	if c.live == nil || c.live(val) {
		return
	}
	c.mu.Lock()
	elem, ok := c.entries[key]
	if ok {
		c.ll.Remove(elem)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if ok {
		c.purged.Add(1)
		if c.onEvict != nil {
			c.onEvict(key, elem.Value.(*cacheEntry[V]).val)
		}
	}
}

// purge removes every entry whose value match selects and returns their
// keys. It scans the whole LRU under the lock; match must not block.
func (c *Cache[V]) purge(match func(val V) bool) []string {
	var keys []string
	c.mu.Lock()
	for elem := c.ll.Front(); elem != nil; {
		next := elem.Next()
		if e := elem.Value.(*cacheEntry[V]); match(e.val) {
			c.ll.Remove(elem)
			delete(c.entries, e.key)
			keys = append(keys, e.key)
		}
		elem = next
	}
	c.mu.Unlock()
	c.purged.Add(int64(len(keys)))
	return keys
}

// has reports whether key is resident, without touching its recency.
func (c *Cache[V]) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Replace installs val under key, overwriting any resident entry — the
// stale-while-revalidate path: a background recompute swaps its fresh result
// in under the same key so later hits stop serving the degraded one. The
// overwritten value is simply dropped (its key stays resident); an entry
// pushed out by LRU pressure goes to the eviction callback. A no-op when
// retention is disabled.
func (c *Cache[V]) Replace(key string, val V) {
	if c.capacity <= 0 {
		return
	}
	var evicted []cacheEntry[V]
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		elem.Value.(*cacheEntry[V]).val = val
		c.ll.MoveToFront(elem)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry[V]{key: key, val: val})
		evicted = c.trimLocked()
	}
	c.mu.Unlock()
	c.evicted(evicted)
	c.dropIfDead(key, val)
}

// Len reports the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Shared    int64 `json:"shared"`
	Evictions int64 `json:"evictions"`
	// Purged counts entries removed because the graph they were computed
	// from was retired; Evictions counts LRU pressure only.
	Purged int64 `json:"purged"`
}

// Stats snapshots the cache counters. Shared counts Do calls that joined an
// in-flight computation instead of starting their own.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{
		Size:      c.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Purged:    c.purged.Load(),
	}
}
