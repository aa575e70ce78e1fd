package serve

import (
	"context"
	"sync"
	"testing"

	"ugs"
)

func bgCtx() context.Context { return context.Background() }

func block(v uint64, n int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = v
	}
	return b
}

func TestWorldCacheHitsAndLRUEviction(t *testing.T) {
	// Budget for exactly two 4-word blocks (32 bytes each).
	c := NewWorldCache(64)
	key := func(i int) ugs.FillKey { return ugs.FillKey{Graph: "g@1", Seed: 7, Block: i} }
	fills := 0
	get := func(i int) []uint64 {
		return c.GetOrFill(key(i), func() []uint64 { fills++; return block(uint64(i), 4) })
	}

	get(0)      // first request: filled, not kept
	a := get(0) // second request: filled and kept
	if got := get(0); &got[0] != &a[0] || fills != 2 {
		t.Fatalf("repeat GetOrFill refilled (fills=%d) or returned a copy", fills)
	}
	get(1)
	get(1) // cache now holds {0, 1}, 0 least recent after...
	get(0) // ...this touch makes 1 the LRU victim
	get(2)
	get(2) // evicts 1
	fills = 0
	get(0) // still cached
	get(2) // still cached
	if fills != 0 {
		t.Fatalf("resident blocks were refilled %d times", fills)
	}
	get(1) // evicted earlier: must refill
	if fills != 1 {
		t.Fatalf("evicted block not refilled (fills=%d)", fills)
	}

	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 64 || st.Evictions < 2 {
		t.Errorf("stats after eviction churn: %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("counters not advancing: %+v", st)
	}
}

func TestWorldCacheOverBudgetBlockServedUncached(t *testing.T) {
	c := NewWorldCache(16) // two words of budget
	// The second request is the one the doorkeeper lets through.
	for i := 0; i < 2; i++ {
		got := c.GetOrFill(ugs.FillKey{Graph: "g@1"}, func() []uint64 { return block(9, 8) })
		if len(got) != 8 || got[0] != 9 {
			t.Fatalf("oversized block mangled: %v", got)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Declined != 2 {
		t.Errorf("oversized block was cached or not counted as declined: %+v", st)
	}
}

// TestWorldCacheConcurrent hammers overlapping keys from many goroutines
// (the -race half of the contract): every returned slice must carry the
// deterministic content of its key, no matter who filled it.
func TestWorldCacheConcurrent(t *testing.T) {
	c := NewWorldCache(1 << 12)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := ugs.FillKey{Graph: "g@1", Seed: int64(w % 2), Block: i % 17}
				want := uint64(k.Seed)<<32 | uint64(k.Block)
				got := c.GetOrFill(k, func() []uint64 { return block(want, 8) })
				for _, v := range got {
					if v != want {
						t.Errorf("key %+v returned block of %x, want %x", k, v, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Hits == 0 {
		t.Errorf("concurrent churn produced no hits: %+v", st)
	}
}

// TestWorldCacheEndToEndBitIdentical is the integration contract: the same
// estimator with and without the serve world cache must agree bit-for-bit,
// and a second run over the same (graph, seed) stream must hit the cache.
func TestWorldCacheEndToEndBitIdentical(t *testing.T) {
	g := ugs.TwitterLike(70, 5)
	pairs := []ugs.Pair{{S: 0, T: 40}, {S: 3, T: 9}}
	c := NewWorldCache(1 << 20)
	plain := ugs.MCOptions{Seed: 5, Samples: 320}
	cachedOpts := plain
	cachedOpts.FillCache, cachedOpts.FillID = c, "g@1"

	spP, rlP, err := ugs.ShortestDistanceAndReliability(bgCtx(), g, pairs, plain)
	if err != nil {
		t.Fatal(err)
	}
	spC, rlC, err := ugs.ShortestDistanceAndReliability(bgCtx(), g, pairs, cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(spP, spC) || !sameFloats(rlP, rlC) {
		t.Fatalf("cached run differs from plain run:\nSP %v vs %v\nRL %v vs %v", spC, spP, rlC, rlP)
	}
	// The stream's second request keeps its blocks.
	if _, _, err := ugs.ShortestDistanceAndReliability(bgCtx(), g, pairs, cachedOpts); err != nil {
		t.Fatal(err)
	}
	misses := c.Stats().Misses
	if misses == 0 {
		t.Fatal("first cached run filled nothing")
	}
	// A different query kind over the same stream reuses the worlds.
	if _, err := ugs.ConnectedProbability(bgCtx(), g, cachedOpts); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != misses {
		t.Errorf("connectivity re-sampled %d blocks the reliability run already filled", st.Misses-misses)
	}
	if st.Hits == 0 {
		t.Error("cross-kind reuse produced no hits")
	}
}

// TestWorldCacheKeepsFromSecondRequest: a key's first request fills and
// keeps nothing, its second fills and keeps the block, and its third hits
// without calling fill.
func TestWorldCacheKeepsFromSecondRequest(t *testing.T) {
	c := NewWorldCache(1 << 20)
	key := ugs.FillKey{Graph: "g@1", Seed: 3, Block: 5}
	fills := 0
	get := func() []uint64 {
		return c.GetOrFill(key, func() []uint64 { fills++; return block(7, 4) })
	}
	want := []WorldCacheStats{
		{Entries: 0, Bytes: 0, Misses: 1, Declined: 1},
		{Entries: 1, Bytes: 32, Misses: 2, Declined: 1},
		{Entries: 1, Bytes: 32, Misses: 2, Declined: 1, Hits: 1},
	}
	var kept []uint64
	for i, w := range want {
		got := get()
		if len(got) != 4 || got[0] != 7 {
			t.Fatalf("request %d returned %v", i+1, got)
		}
		if i == 1 {
			kept = got
		}
		w.BudgetBytes = 1 << 20
		if st := c.Stats(); st != w {
			t.Fatalf("after request %d: %+v, want %+v", i+1, st, w)
		}
		if fills != min(i+1, 2) {
			t.Fatalf("after request %d: %d fills", i+1, fills)
		}
	}
	if got := get(); &got[0] != &kept[0] {
		t.Error("a hit returned a different slice than the kept fill")
	}
}

// TestWorldCacheOneShotKeysKeepNothing: 100,000 distinct keys, each asked
// for once, leave the cache empty; the doorkeeper stays its fixed size.
func TestWorldCacheOneShotKeysKeepNothing(t *testing.T) {
	c := NewWorldCache(1 << 30)
	for i := 0; i < 100_000; i++ {
		k := ugs.FillKey{Graph: "g@1", Seed: int64(i % 7), Block: i}
		c.GetOrFill(k, func() []uint64 { return block(uint64(i), 16) })
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Misses != 100_000 || st.Declined != 100_000 || st.Hits != 0 {
		t.Errorf("after 100,000 one-shot keys: %+v, want nothing kept", st)
	}
	if n := len(c.seen); n != seenSlots {
		t.Errorf("doorkeeper holds %d slots, want %d", n, seenSlots)
	}
}

// TestWorldCacheOverwrittenSlotForgetsKey: blocks seenSlots apart in one
// stream share a doorkeeper slot, so the second of them makes the first a
// stranger again: its next request is declined, the one after is kept.
func TestWorldCacheOverwrittenSlotForgetsKey(t *testing.T) {
	c := NewWorldCache(1 << 20)
	a := ugs.FillKey{Graph: "g@1", Seed: 3, Block: 1}
	b := ugs.FillKey{Graph: "g@1", Seed: 3, Block: 1 + seenSlots}
	if c.tag(a)%seenSlots != c.tag(b)%seenSlots {
		t.Fatal("keys seenSlots blocks apart do not share a slot")
	}
	get := func(k ugs.FillKey) { c.GetOrFill(k, func() []uint64 { return block(1, 4) }) }
	get(a)
	get(b) // overwrites a's slot
	get(a)
	if st := c.Stats(); st.Entries != 0 || st.Declined != 3 {
		t.Fatalf("a key whose slot was overwritten was kept: %+v", st)
	}
	get(a)
	if st := c.Stats(); st.Entries != 1 || st.Declined != 3 {
		t.Fatalf("a key asked for again after being forgotten was not kept: %+v", st)
	}
}

// warmWorlds asks for the sample stream (graph, seed) of a query of
// samples worlds once, through the server's world cache but outside its
// query cache, so the next request on the stream is its second and keeps
// its blocks. It runs at 64 lanes, so every full block goes through the
// cache.
func warmWorlds(t *testing.T, s *Server, graph string, samples int, seed int64) {
	t.Helper()
	g, gid, release, err := s.acquireGraph(bgCtx(), graph)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	opts := ugs.MCOptions{Samples: samples, Seed: seed, Lanes: 64, FillCache: s.worlds, FillID: gid}
	if _, err := ugs.ConnectedProbability(bgCtx(), g, opts); err != nil {
		t.Fatal(err)
	}
}
