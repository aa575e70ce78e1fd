package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitMissAndLRUEviction(t *testing.T) {
	c := NewCache[int](2)
	ctx := context.Background()
	compute := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}

	if v, cached, err := c.Do(ctx, "a", compute(1)); v != 1 || cached || err != nil {
		t.Fatalf("first Do: %d %v %v", v, cached, err)
	}
	if v, cached, _ := c.Do(ctx, "a", compute(99)); v != 1 || !cached {
		t.Fatalf("second Do recomputed: %d cached=%v", v, cached)
	}
	c.Do(ctx, "b", compute(2))
	c.Do(ctx, "a", compute(99)) // refresh a's recency
	c.Do(ctx, "c", compute(3))  // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a (recently used) was evicted")
	}
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 || st.Hits != 2 || st.Misses != 3 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCacheOnEvict: the callback sees exactly the keys that leave the cache
// by themselves — LRU pressure from Do or Replace — and not a value Replace
// overwrites under a key that stays resident.
func TestCacheOnEvict(t *testing.T) {
	c := NewCache[string](1)
	var evicted []string
	c.OnEvict(func(key string, val string) { evicted = append(evicted, key+"="+val) })
	ctx := context.Background()
	c.Do(ctx, "x", func() (string, error) { return "1", nil })
	c.Do(ctx, "y", func() (string, error) { return "2", nil })
	if len(evicted) != 1 || evicted[0] != "x=1" {
		t.Errorf("evicted: %v", evicted)
	}
	c.Replace("y", "3")
	if len(evicted) != 1 {
		t.Errorf("overwriting a resident key reported %v", evicted[1:])
	}
	c.Replace("z", "4")
	if len(evicted) != 2 || evicted[1] != "y=3" {
		t.Errorf("evicted after Replace pushed y out: %v", evicted)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Purged != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCacheDropsEntriesOfDeadGraphs: with a liveness check installed, a
// value whose graph died while it was computed is handed to the caller but
// not retained, and is reported as it leaves; purge removes what it matches.
func TestCacheDropsEntriesOfDeadGraphs(t *testing.T) {
	c := NewCache[string](4)
	dead := map[string]bool{"old": true}
	c.live = func(v string) bool { return !dead[v] }
	var left []string
	c.OnEvict(func(key, _ string) { left = append(left, key) })
	ctx := context.Background()
	if v, _, err := c.Do(ctx, "a", func() (string, error) { return "old", nil }); v != "old" || err != nil {
		t.Fatalf("Do: %q %v", v, err)
	}
	c.Replace("b", "old")
	c.Do(ctx, "c", func() (string, error) { return "new", nil })
	c.Replace("d", "new")
	if _, ok := c.Get("a"); ok || c.has("b") || !c.has("c") || !c.has("d") {
		t.Fatalf("resident after insert: %d entries, want only c and d", c.Len())
	}
	if fmt.Sprint(left) != "[a b]" {
		t.Errorf("reported %v, want [a b]", left)
	}
	if keys := c.purge(func(v string) bool { return v == "new" }); len(keys) != 2 || c.Len() != 0 {
		t.Errorf("purge removed %v, %d left", keys, c.Len())
	}
	if st := c.Stats(); st.Purged != 4 || st.Evictions != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCacheSingleflightSharesOneComputation(t *testing.T) {
	c := NewCache[int](4)
	ctx := context.Background()
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 8
	results := make([]int, waiters)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.Do(ctx, "k", func() (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0] = v
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(ctx, "k", func() (int, error) {
				computes.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Waiters must be parked on the flight, not spinning their own
	// computations; give them a moment to enqueue, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("%d computations for %d concurrent callers", n, waiters)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d", i, v)
		}
	}
	if st := c.Stats(); st.Shared == 0 {
		t.Errorf("no shared flights recorded: %+v", st)
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := NewCache[int](4)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, cached, err := c.Do(ctx, "k", func() (int, error) { return 7, nil })
	if v != 7 || cached || err != nil {
		t.Errorf("after error: %d %v %v (want fresh recompute)", v, cached, err)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := NewCache[int](4)
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: err = %v", err)
	}
	close(release)
}

func TestCacheZeroCapacityStillSingleflights(t *testing.T) {
	c := NewCache[int](0)
	ctx := context.Background()
	n := 0
	for i := 0; i < 3; i++ {
		v, cached, err := c.Do(ctx, "k", func() (int, error) { n++; return n, nil })
		if err != nil || cached || v != i+1 {
			t.Errorf("run %d: v=%d cached=%v err=%v", i, v, cached, err)
		}
	}
	if c.Len() != 0 {
		t.Errorf("zero-capacity cache retained %d entries", c.Len())
	}
}

func TestCacheManyKeysConcurrently(t *testing.T) {
	c := NewCache[string](8)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (w+i)%12)
				v, _, err := c.Do(ctx, key, func() (string, error) { return key, nil })
				if err != nil || v != key {
					t.Errorf("Do(%s) = %q, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("capacity exceeded: %d", c.Len())
	}
}
