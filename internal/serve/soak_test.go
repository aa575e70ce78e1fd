package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"testing"
	"time"

	"ugs"
)

// soakHeapBound caps the live heap after the soak and a GC. The soak's
// caches are small (8 sparsified results, 64 answers, 1 MiB of worlds) and
// its graphs have 80 vertices. The live heap read 0.9 MB at this point
// (amd64, whole package under -race), so a reading near the bound means
// state is accumulating.
const soakHeapBound = 8 << 20

// genTracker counts, per graph ID, the *ugs.Graph values registered with
// watch that the garbage collector has not yet reclaimed.
type genTracker struct {
	mu      sync.Mutex
	pending map[string]int
}

func (tr *genTracker) watch(id string, g *ugs.Graph) {
	tr.mu.Lock()
	tr.pending[id]++
	tr.mu.Unlock()
	runtime.AddCleanup(g, func(id string) {
		tr.mu.Lock()
		tr.pending[id]--
		tr.mu.Unlock()
	}, id)
}

// uncollected lists the IDs not in live that still have graphs alive.
func (tr *genTracker) uncollected(live map[string]bool) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ids []string
	for id, n := range tr.pending {
		if n > 0 && !live[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// soakLive maps every graph ID a request can name right now: the current
// generation of each store name and every resident sparsified result.
func soakLive(t *testing.T, s *Server, names []string) map[string]bool {
	t.Helper()
	live := make(map[string]bool)
	for _, name := range names {
		_, id, release, err := s.Store().Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		release()
		live[id] = true
	}
	for _, e := range cacheValues(s.sparse) {
		live[e.resp.ID] = true
	}
	return live
}

// TestSoakChurnKeepsOnlyLiveGenerations drives rounds of churn through the
// handler under a store budget that holds two of its three graphs: a patch,
// a re-upload, queries that evict, a sparsify, a query on the sparsified
// result and a sparsify of that result. After every round every cached entry
// was computed from a graph a request can still name. At the end every
// retired generation's graph is collected, the live heap is under
// soakHeapBound, and after shutdown the goroutine count is back at its
// baseline.
func TestSoakChurnKeepsOnlyLiveGenerations(t *testing.T) {
	const rounds = 50
	baseGoroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(ctx, Config{
		StoreBudgetBytes:  2*heapGraphBytes(ugs.TwitterLike(80, 1)) + 1024,
		ConvertDir:        t.TempDir(),
		SparsifyCacheSize: 8, QueryCacheSize: 64, WorldCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	upload := func(name string, seed int64) error {
		var buf bytes.Buffer
		if err := ugs.WriteGraph(&buf, ugs.TwitterLike(80, seed)); err != nil {
			return err
		}
		if w := serve(s, "POST", "/v1/graphs/"+name, &buf); w.Code != 201 {
			return fmt.Errorf("upload %s: %d %s", name, w.Code, w.Body.String())
		}
		return nil
	}
	for i, name := range names {
		if err := upload(name, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	edge := ugs.TwitterLike(80, 1).Edge(0) // present in every generation of "a"

	call := func(method, path string, body any, out any) error {
		w := serve(s, method, path, body)
		if w.Code != 200 {
			return fmt.Errorf("%s %s: %d %s", method, path, w.Code, w.Body.String())
		}
		if out != nil {
			return json.Unmarshal(w.Body.Bytes(), out)
		}
		return nil
	}
	query := func(graph string, seed int64) func() error {
		return func() error { return call("POST", "/v1/query", reliabilityBody(graph, 128, seed), nil) }
	}

	tr := &genTracker{pending: make(map[string]int)}
	for round := 0; round < rounds; round++ {
		seed := int64(round)
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		run := func(ops ...func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range ops {
					if err := op(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		var sp1, sp2 SparsifyResponse
		run(func() error {
			patch := map[string]any{"edits": []map[string]any{{"op": "reweight", "u": edge.U, "v": edge.V, "p": 0.2 + 0.6*float64(round%2)}}}
			return call("PATCH", "/v1/graphs/a/edges", patch, nil)
		}, func() error {
			return call("POST", "/v1/sparsify", sparsifyBody("a", 0.3, "gdb", seed), &sp1)
		}, func() error {
			return query(sp1.ID, seed)()
		}, func() error {
			return call("POST", "/v1/sparsify", sparsifyBody(sp1.ID, 0.5, "gdb", seed), &sp2)
		}, func() error {
			return query(sp2.ID, seed)()
		})
		run(func() error { return upload("b", int64(100+round)) }, query("b", seed))
		run(query("c", seed), query("a", seed), query("c", seed+1))
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}

		live := soakLive(t, s, names)
		sparse, queries, worlds := cachedGraphs(s)
		for cache, graphs := range map[string][]string{"sparsify": sparse, "query": queries, "world": worlds} {
			for _, id := range graphs {
				if !live[id] {
					t.Fatalf("round %d: %s cache holds an entry of %s, which no request can name", round, cache, id)
				}
			}
		}
		for _, name := range names {
			g, id, release, err := s.Store().Acquire(name)
			if err != nil {
				t.Fatal(err)
			}
			tr.watch(id, g)
			release()
		}
		for _, e := range cacheValues(s.sparse) {
			tr.watch(e.resp.ID, e.graph)
		}
	}
	if st := s.store.Stats(); st.Evictions == 0 || st.Patches != rounds {
		t.Fatalf("churn did not exercise the store: %+v", st)
	}

	// Every retired generation's graph, and every sparsified result that
	// left the cache, becomes garbage while the server lives on.
	live := soakLive(t, s, names)
	var left []string
	for i := 0; i < 50; i++ {
		runtime.GC()
		if left = tr.uncollected(live); len(left) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(left) > 0 {
		t.Errorf("graphs of %d retired IDs never collected: %v", len(left), left)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	heap := sample[0].Value.Uint64()
	t.Logf("%d graph IDs watched, %d live at the end; live heap %.1f MB", len(tr.pending), len(live), float64(heap)/1e6)
	if heap > soakHeapBound {
		t.Errorf("live heap %d bytes after the soak, bound %d", heap, soakHeapBound)
	}
	runtime.KeepAlive(s)

	cancel()
	if !s.DrainJobs(5 * time.Second) {
		t.Fatal("jobs did not drain")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutdown, %d before the soak", runtime.NumGoroutine(), baseGoroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
