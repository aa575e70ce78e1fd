package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ugs"
)

// cacheValues snapshots the values resident in c, most recent first.
func cacheValues[V any](c *Cache[V]) []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var vals []V
	for el := c.ll.Front(); el != nil; el = el.Next() {
		vals = append(vals, el.Value.(*cacheEntry[V]).val)
	}
	return vals
}

// cachedGraphs lists, per cache, the graph ID every resident entry was
// computed from: a sparsified result's original, a query answer's graph,
// a world block's FillKey.Graph.
func cachedGraphs(s *Server) (sparse, queries, worlds []string) {
	for _, e := range cacheValues(s.sparse) {
		sparse = append(sparse, e.resp.Original)
	}
	for _, e := range cacheValues(s.queries) {
		queries = append(queries, e.graph)
	}
	if s.worlds != nil {
		s.worlds.mu.Lock()
		for el := s.worlds.lru.Front(); el != nil; el = el.Next() {
			worlds = append(worlds, el.Value.(*worldEntry).key.Graph)
		}
		s.worlds.mu.Unlock()
	}
	return sparse, queries, worlds
}

// graphCounts counts resident entries per graph ID across the query and
// world caches.
func graphCounts(s *Server) map[string]int {
	_, queries, worlds := cachedGraphs(s)
	n := make(map[string]int)
	for _, id := range append(queries, worlds...) {
		n[id]++
	}
	return n
}

// assertNoEntriesFor fails if any cache still holds an entry computed from
// one of ids.
func assertNoEntriesFor(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	sparse, queries, worlds := cachedGraphs(s)
	for _, id := range ids {
		for cache, graphs := range map[string][]string{"sparsify": sparse, "query": queries, "world": worlds} {
			for _, g := range graphs {
				if g == id {
					t.Errorf("%s cache still holds an entry of retired %s", cache, id)
					break
				}
			}
		}
	}
}

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// patchFirstEdge reweights g's first edge through the handler, expecting the
// new version want.
func patchFirstEdge(t *testing.T, s *Server, name string, g *ugs.Graph, p float64, want int) {
	t.Helper()
	e := g.Edge(0)
	body := map[string]any{"edits": []map[string]any{{"op": "reweight", "u": e.U, "v": e.V, "p": p}}}
	var pr PatchResponse
	if w := do(t, s, "PATCH", "/v1/graphs/"+name+"/edges", body, &pr); w.Code != 200 || pr.Version != want {
		t.Fatalf("patch %s: %d %s", name, w.Code, w.Body.String())
	}
}

// TestReuploadRetiresGeneration: re-uploading a name retires its old
// generation like a patch does — sparsified results, their query answers
// and the world blocks of both are purged, and the result ID is gone.
func TestReuploadRetiresGeneration(t *testing.T) {
	s, _ := newTestServer(t, Config{WorldCacheBytes: 1 << 20})
	var sp SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "gdb", 1), &sp); w.Code != 200 {
		t.Fatalf("sparsify: %d %s", w.Code, w.Body.String())
	}
	for _, graph := range []string{"g", sp.ID} {
		warmWorlds(t, s, graph, 256, 3) // the query is the stream's second request
		if w := do(t, s, "POST", "/v1/query", reliabilityBody(graph, 256, 3), nil); w.Code != 200 {
			t.Fatalf("query %s: %d %s", graph, w.Code, w.Body.String())
		}
	}
	if n := graphCounts(s); n["g@1"] < 2 || n[sp.ID] < 2 {
		t.Fatalf("caches not warmed for g@1 and %s: %v", sp.ID, n)
	}

	var buf bytes.Buffer
	if err := ugs.WriteGraph(&buf, ugs.TwitterLike(80, 8)); err != nil {
		t.Fatal(err)
	}
	if w := serve(s, "POST", "/v1/graphs/g", bytes.NewReader(buf.Bytes())); w.Code != 201 {
		t.Fatalf("re-upload: %d %s", w.Code, w.Body.String())
	}
	assertNoEntriesFor(t, s, "g@1", sp.ID)
	if w := do(t, s, "GET", "/v1/sparsify/"+sp.ID+"/graph", nil, nil); w.Code != 404 {
		t.Errorf("retired result downloads with %d, want 404", w.Code)
	}
	if w := do(t, s, "POST", "/v1/query", reliabilityBody("g", 256, 3), nil); w.Code != 200 {
		t.Fatalf("query after re-upload: %d", w.Code)
	}
	if n := graphCounts(s); n["g@2"] == 0 {
		t.Errorf("no entries for the new generation: %v", n)
	}
}

// TestSparsifyEvictionRetiresResult: a sparsified result pushed out of the
// sparsify cache can no longer be named in a query, so its query answers
// and world blocks go with it — and nothing else does.
func TestSparsifyEvictionRetiresResult(t *testing.T) {
	s, _ := newTestServer(t, Config{SparsifyCacheSize: 1, WorldCacheBytes: 1 << 20})
	// Each query below is its stream's second request, so it keeps its
	// blocks.
	warmWorlds(t, s, "g", 256, 3)
	if w := do(t, s, "POST", "/v1/query", reliabilityBody("g", 256, 3), nil); w.Code != 200 {
		t.Fatalf("query g: %d", w.Code)
	}
	var a, b SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "gdb", 1), &a); w.Code != 200 {
		t.Fatalf("sparsify a: %d", w.Code)
	}
	warmWorlds(t, s, a.ID, 256, 3)
	if w := do(t, s, "POST", "/v1/query", reliabilityBody(a.ID, 256, 3), nil); w.Code != 200 {
		t.Fatalf("query a: %d", w.Code)
	}
	before := graphCounts(s)
	if before[a.ID] < 2 || before["g@1"] < 2 {
		t.Fatalf("caches not warmed: %v", before)
	}

	if w := do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "gdb", 2), &b); w.Code != 200 || b.ID == a.ID {
		t.Fatalf("sparsify b: %d %+v", w.Code, b)
	}
	assertNoEntriesFor(t, s, a.ID)
	if after := graphCounts(s); after["g@1"] != before["g@1"] {
		t.Errorf("g@1 entries changed from %d to %d by retiring %s", before["g@1"], after["g@1"], a.ID)
	}
	if w := do(t, s, "POST", "/v1/query", reliabilityBody(a.ID, 256, 3), nil); w.Code != 404 {
		t.Errorf("query on evicted result: %d, want 404", w.Code)
	}
	warmWorlds(t, s, b.ID, 256, 3)
	if w := do(t, s, "POST", "/v1/query", reliabilityBody(b.ID, 256, 3), nil); w.Code != 200 {
		t.Fatalf("query b: %d", w.Code)
	}
	if n := graphCounts(s); n[b.ID] < 2 || n["g@1"] != before["g@1"] {
		t.Errorf("entries after querying b: %v", n)
	}
	if st := s.sparse.Stats(); st.Evictions != 1 || st.Purged != 0 {
		t.Errorf("sparsify cache stats: %+v (want 1 eviction, 0 purged)", st)
	}
	if st := s.queries.Stats(); st.Evictions != 0 || st.Purged != 1 {
		t.Errorf("query cache stats: %+v (want 0 evictions, 1 purged)", st)
	}
}

// gatedSeq keeps gated method names unique across test repetitions (the
// registry is process-wide).
var gatedSeq atomic.Int64

// gatedMethod registers a sparsifier that signals started when a run begins,
// waits for release to close, and then runs gdb.
func gatedMethod(t *testing.T) (name string, started <-chan struct{}, release chan struct{}) {
	t.Helper()
	name = fmt.Sprintf("gated-%d", gatedSeq.Add(1))
	begin := make(chan struct{}, 1)
	release = make(chan struct{})
	run := func(ctx context.Context, g *ugs.Graph, alpha float64) (*ugs.Result, error) {
		select {
		case begin <- struct{}{}:
		default:
		}
		<-release
		sp, err := ugs.Lookup("gdb", ugs.WithSeed(1))
		if err != nil {
			return nil, err
		}
		return sp.Sparsify(ctx, g, alpha)
	}
	ugs.MustRegister(name, func(...ugs.Option) (ugs.Sparsifier, error) { return ugs.NewSparsifier(name, run), nil })
	return name, begin, release
}

// TestRetireInFlightSparsify: a PATCH lands while a synchronous sparsify is
// computing for the old generation and an async job waits on the same
// flight. Both still get their answer, and the result is not left behind in
// the cache.
func TestRetireInFlightSparsify(t *testing.T) {
	s, g := newTestServer(t, Config{WorldCacheBytes: 1 << 20})
	method, started, release := gatedMethod(t)
	body := sparsifyBody("g", 0.3, method, 1)

	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { syncDone <- serve(s, "POST", "/v1/sparsify", body) }()
	<-started
	var job JobStatus
	if w := do(t, s, "POST", "/v1/jobs", body, &job); w.Code != 202 {
		t.Fatalf("job: %d %s", w.Code, w.Body.String())
	}
	waitFor(t, "the job to join the flight", func() bool { return s.sparse.Stats().Shared == 1 })

	patchFirstEdge(t, s, "g", g, 0.5, 2)
	close(release)

	w := <-syncDone
	var resp SparsifyResponse
	if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
		t.Fatalf("sync sparsify: %d %s", w.Code, w.Body.String())
	}
	if resp.Original != "g@1" || resp.Cached {
		t.Errorf("sync answer: %+v", resp)
	}
	waitFor(t, "the job to finish", func() bool {
		st, _ := s.jobs.Get(job.ID)
		return st.Status().State != JobRunning
	})
	if st, _ := s.jobs.Get(job.ID); st.Status().State != JobDone || st.Status().Result.ID != resp.ID {
		t.Fatalf("job: %+v", st.Status())
	}
	assertNoEntriesFor(t, s, "g@1")
	if w := do(t, s, "GET", "/v1/sparsify/"+resp.ID+"/graph", nil, nil); w.Code != 404 {
		t.Errorf("result of the retired generation downloads with %d, want 404", w.Code)
	}
	if st := s.sparse.Stats(); st.Size != 0 || st.Purged != 1 {
		t.Errorf("sparsify cache: %+v (want empty, 1 purged)", st)
	}
}

// gatedFills wraps the world cache so the first block fill waits on a gate.
type gatedFills struct {
	inner ugs.FillCache
	gate  func()
}

func (f gatedFills) GetOrFill(key ugs.FillKey, fill func() []uint64) []uint64 {
	return f.inner.GetOrFill(key, func() []uint64 { f.gate(); return fill() })
}

// TestRetireInFlightWorldFill: a PATCH lands while a batcher flight is
// sampling a world block of the old generation and a second request waits on
// the same query flight. Both get the old generation's exact answer; neither
// the blocks filled after the purge nor the answer stay cached.
func TestRetireInFlightWorldFill(t *testing.T) {
	s, g := newTestServer(t, Config{WorldCacheBytes: 1 << 20})
	// The gated run is the stream's second request, so its fills keep
	// their blocks.
	warmWorlds(t, s, "g", 600, 9)
	warm := s.worlds.Stats()
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := func() { once.Do(func() { close(started); <-release }) }
	s.batcher.run = func(ctx context.Context, g *ugs.Graph, pairs []ugs.Pair, opts ugs.MCOptions) ([]float64, []float64, error) {
		opts.FillCache = gatedFills{inner: opts.FillCache, gate: gate}
		return ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts)
	}
	body := reliabilityBody("g", 600, 9)

	done := make(chan *httptest.ResponseRecorder, 2)
	go func() { done <- serve(s, "POST", "/v1/query", body) }()
	<-started
	go func() { done <- serve(s, "POST", "/v1/query", body) }()
	waitFor(t, "the second request to join the flight", func() bool { return s.queries.Stats().Shared == 1 })
	patchFirstEdge(t, s, "g", g, 0.5, 2)
	close(release)

	want, err := ugs.Reliability(context.Background(), g,
		[]ugs.Pair{{S: 0, T: 1}, {S: 2, T: 9}, {S: 4, T: 33}}, ugs.MCOptions{Samples: 600, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w := <-done
		var q QueryResponse
		if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &q) != nil {
			t.Fatalf("query %d: %d %s", i, w.Code, w.Body.String())
		}
		for j, v := range q.Values {
			if v == nil || *v != want[j] {
				t.Fatalf("query %d pair %d: %v, want %v (the pinned generation's answer)", i, j, v, want[j])
			}
		}
	}
	assertNoEntriesFor(t, s, "g@1")
	if st := s.worlds.Stats(); st.Entries != 0 || st.Purged == 0 || st.Misses-warm.Misses != st.Purged {
		t.Errorf("world cache: %+v (want every filled block purged)", st)
	}
	if st := s.queries.Stats(); st.Size != 0 || st.Purged != 1 {
		t.Errorf("query cache: %+v (want empty, 1 purged)", st)
	}
}

// TestRetireAbandonedFlightFill: the only rider of a batcher flight times
// out while the flight samples a world block, which abandons the flight;
// then a PATCH retires the generation, and only then does the fill finish.
// The block it stores is dropped again, so nothing of g@1 stays cached.
func TestRetireAbandonedFlightFill(t *testing.T) {
	s, g := newTestServer(t, Config{WorldCacheBytes: 1 << 20})
	// The gated fill is its block's second request, so it keeps the block.
	warmWorlds(t, s, "g", 600, 9)
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := func() { once.Do(func() { close(started); <-release }) }
	flightDone := make(chan struct{})
	s.batcher.run = func(ctx context.Context, g *ugs.Graph, pairs []ugs.Pair, opts ugs.MCOptions) ([]float64, []float64, error) {
		defer close(flightDone)
		opts.FillCache = gatedFills{inner: opts.FillCache, gate: gate}
		return ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts)
	}
	body := reliabilityBody("g", 600, 9)
	body["timeout_ms"] = 50

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serve(s, "POST", "/v1/query", body) }()
	<-started
	if w := <-done; w.Code != 504 {
		t.Fatalf("query: %d %s, want 504", w.Code, w.Body.String())
	}
	waitFor(t, "the flight to be abandoned", func() bool { return s.batcher.Stats().AbandonedFlights == 1 })
	patchFirstEdge(t, s, "g", g, 0.5, 2)
	close(release)
	<-flightDone

	assertNoEntriesFor(t, s, "g@1")
	if st := s.worlds.Stats(); st.Entries != 0 || st.Purged == 0 {
		t.Errorf("world cache: %+v (want the late block purged)", st)
	}
}
