package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ugs"
)

// newTestServer builds a server with one resident graph "g".
func newTestServer(t *testing.T, cfg Config) (*Server, *ugs.Graph) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ugs.TwitterLike(80, 7)
	if err := s.Store().Add("g", g); err != nil {
		t.Fatal(err)
	}
	return s, g
}

// do runs one request against the handler and decodes the JSON response.
func do(t *testing.T, s *Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = httptest.NewRequest(method, path, bytes.NewReader(blob))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %v\n%s", method, path, err, w.Body.String())
		}
	}
	return w
}

func sparsifyBody(graph string, alpha float64, method string, seed int64) map[string]any {
	return map[string]any{"graph": graph, "alpha": alpha, "method": method, "seed": seed}
}

func TestHealthAndGraphEndpoints(t *testing.T) {
	s, g := newTestServer(t, Config{})
	if w := do(t, s, "GET", "/healthz", nil, nil); w.Code != 200 {
		t.Errorf("healthz: %d", w.Code)
	}

	var list []GraphInfo
	if w := do(t, s, "GET", "/v1/graphs", nil, &list); w.Code != 200 || len(list) != 1 {
		t.Fatalf("list: %d %v", w.Code, list)
	}
	if list[0].Name != "g" || list[0].Edges != g.NumEdges() {
		t.Errorf("listed: %+v", list[0])
	}

	var info GraphInfo
	if w := do(t, s, "GET", "/v1/graphs/g", nil, &info); w.Code != 200 || info.Vertices != g.NumVertices() {
		t.Errorf("get: %d %+v", w.Code, info)
	}
	if w := do(t, s, "GET", "/v1/graphs/nope", nil, nil); w.Code != 404 {
		t.Errorf("missing graph: %d", w.Code)
	}

	// Upload round trip.
	var buf bytes.Buffer
	if err := ugs.WriteGraph(&buf, ugs.TwitterLike(40, 2)); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/graphs/up1", bytes.NewReader(buf.Bytes()))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != 201 {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, s, "GET", "/v1/graphs/up1", nil, &info); w.Code != 200 || info.Vertices != 40 {
		t.Errorf("uploaded graph: %d %+v", w.Code, info)
	}
	// Invalid uploads are rejected.
	r = httptest.NewRequest("POST", "/v1/graphs/bad", strings.NewReader("not a graph"))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != 400 {
		t.Errorf("bad upload: %d", w.Code)
	}
	r = httptest.NewRequest("POST", "/v1/graphs/bad%2Fname", strings.NewReader("2 1\n0 1 0.5\n"))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != 400 {
		t.Errorf("bad name: %d", w.Code)
	}
}

func TestSparsifyCacheHitDoesZeroWork(t *testing.T) {
	s, g := newTestServer(t, Config{})
	body := sparsifyBody("g", 0.3, "gdb", 1)

	var first SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", body, &first); w.Code != 200 {
		t.Fatalf("sparsify: %d %s", w.Code, w.Body.String())
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if first.ID == "" || !strings.HasPrefix(first.ID, "sp-") {
		t.Errorf("id: %q", first.ID)
	}
	budget := int(math.Round(0.3 * float64(g.NumEdges())))
	if first.Graph.Edges != budget {
		t.Errorf("edges = %d, want α|E| = %d", first.Graph.Edges, budget)
	}
	if got := s.Computes(); got != 1 {
		t.Fatalf("computes after first request: %d", got)
	}

	// The acceptance criterion: a cache hit performs zero sparsifier work.
	var second SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", body, &second); w.Code != 200 {
		t.Fatalf("repeat: %d", w.Code)
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	if got := s.Computes(); got != 1 {
		t.Errorf("cache hit ran the sparsifier: computes = %d, want 1", got)
	}
	if second.ID != first.ID || second.Key != first.Key || second.Stats != first.Stats {
		t.Errorf("cached response differs:\n%+v\n%+v", second, first)
	}

	// A different spec is a different key.
	var third SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "gdb", 2), &third); w.Code != 200 {
		t.Fatalf("third: %d", w.Code)
	}
	if third.ID == first.ID {
		t.Error("different seed produced the same id")
	}
	if got := s.Computes(); got != 2 {
		t.Errorf("computes = %d, want 2", got)
	}
}

func TestSparsifyValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	cases := []struct {
		body map[string]any
		code int
	}{
		{sparsifyBody("nope", 0.3, "gdb", 1), 404},
		{sparsifyBody("g", 0, "gdb", 1), 400},
		{sparsifyBody("g", 1.5, "gdb", 1), 400},
		{sparsifyBody("g", 0.3, "bogus", 1), 400},
		{sparsifyBody("", 0.3, "gdb", 1), 400},
		{map[string]any{"graph": "g", "alpha": 0.3, "method": "gdb", "wat": 1}, 400},
	}
	for i, c := range cases {
		if w := do(t, s, "POST", "/v1/sparsify", c.body, nil); w.Code != c.code {
			t.Errorf("case %d: %d, want %d (%s)", i, w.Code, c.code, w.Body.String())
		}
	}
}

func TestQueryEndpointsAndDerivedGraphs(t *testing.T) {
	s, g := newTestServer(t, Config{})

	// Sparsify, then query the derived graph by its id.
	var sp SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.4, "gdb", 1), &sp); w.Code != 200 {
		t.Fatalf("sparsify: %d", w.Code)
	}

	rng := rand.New(rand.NewSource(3))
	pairs := ugs.RandomPairs(g.NumVertices(), 6, rng)
	reqPairs := make([][2]int, len(pairs))
	for i, p := range pairs {
		reqPairs[i] = [2]int{p.S, p.T}
	}

	for _, target := range []string{"g", sp.ID} {
		var rel QueryResponse
		w := do(t, s, "POST", "/v1/query",
			map[string]any{"graph": target, "kind": "reliability", "pairs": reqPairs, "samples": 128, "seed": 5}, &rel)
		if w.Code != 200 {
			t.Fatalf("%s reliability: %d %s", target, w.Code, w.Body.String())
		}
		if len(rel.Values) != len(pairs) || rel.Cached {
			t.Fatalf("%s reliability shape: %d values cached=%v", target, len(rel.Values), rel.Cached)
		}
		for i, v := range rel.Values {
			if v == nil || *v < 0 || *v > 1 {
				t.Errorf("%s reliability[%d] = %v", target, i, v)
			}
		}

		// Distance shares the SP+RL pass: the repeat must be a cache hit.
		var dist QueryResponse
		w = do(t, s, "POST", "/v1/query",
			map[string]any{"graph": target, "kind": "distance", "pairs": reqPairs, "samples": 128, "seed": 5}, &dist)
		if w.Code != 200 || !dist.Cached {
			t.Errorf("%s distance after reliability: %d cached=%v (want shared cache entry)", target, w.Code, dist.Cached)
		}

		var conn QueryResponse
		w = do(t, s, "POST", "/v1/query",
			map[string]any{"graph": target, "kind": "connected", "samples": 64}, &conn)
		if w.Code != 200 || conn.Value == nil || *conn.Value < 0 || *conn.Value > 1 {
			t.Errorf("%s connected: %d %+v", target, w.Code, conn)
		}
	}

	// The HTTP-level equivalence half of the acceptance criterion: the
	// service's reliability numbers equal the direct library call.
	directSP, directRL, err := ugs.ShortestDistanceAndReliability(
		context.Background(), g, pairs, ugs.MCOptions{Seed: 5, Samples: 128})
	if err != nil {
		t.Fatal(err)
	}
	var rel, dist QueryResponse
	do(t, s, "POST", "/v1/query", map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 128, "seed": 5}, &rel)
	do(t, s, "POST", "/v1/query", map[string]any{"graph": "g", "kind": "distance", "pairs": reqPairs, "samples": 128, "seed": 5}, &dist)
	for i := range pairs {
		if *rel.Values[i] != directRL[i] {
			t.Errorf("service RL[%d] = %v, direct %v", i, *rel.Values[i], directRL[i])
		}
		switch {
		case math.IsNaN(directSP[i]):
			if dist.Values[i] != nil {
				t.Errorf("service SP[%d] = %v, direct NaN", i, *dist.Values[i])
			}
		case dist.Values[i] == nil || *dist.Values[i] != directSP[i]:
			t.Errorf("service SP[%d] = %v, direct %v", i, dist.Values[i], directSP[i])
		}
	}

	// Download the derived graph and verify its shape.
	r := httptest.NewRequest("GET", "/v1/sparsify/"+sp.ID+"/graph", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != 200 {
		t.Fatalf("download: %d", w.Code)
	}
	back, err := ugs.ReadGraph(w.Body)
	if err != nil {
		t.Fatalf("downloaded graph unreadable: %v", err)
	}
	if back.NumVertices() != g.NumVertices() {
		t.Errorf("downloaded graph has %d vertices, want %d", back.NumVertices(), g.NumVertices())
	}
	if w := do(t, s, "GET", "/v1/sparsify/sp-doesnotexist/graph", nil, nil); w.Code != 404 {
		t.Errorf("missing derived graph: %d", w.Code)
	}
}

func TestQueryValidation(t *testing.T) {
	s, g := newTestServer(t, Config{MaxSamples: 500})
	n := g.NumVertices()
	cases := []struct {
		body map[string]any
		code int
	}{
		{map[string]any{"graph": "nope", "kind": "reliability", "pairs": [][2]int{{0, 1}}}, 404},
		{map[string]any{"graph": "g", "kind": "bogus", "pairs": [][2]int{{0, 1}}}, 400},
		{map[string]any{"graph": "g", "kind": "reliability"}, 400},
		{map[string]any{"graph": "g", "kind": "reliability", "pairs": [][2]int{{0, n}}}, 400},
		{map[string]any{"graph": "g", "kind": "reliability", "pairs": [][2]int{{-1, 1}}}, 400},
		{map[string]any{"graph": "g", "kind": "reliability", "pairs": [][2]int{{0, 1}}, "samples": 501}, 400},
		{map[string]any{"graph": "g", "kind": "connected", "pairs": [][2]int{{0, 1}}}, 400},
	}
	for i, c := range cases {
		if w := do(t, s, "POST", "/v1/query", c.body, nil); w.Code != c.code {
			t.Errorf("case %d: %d, want %d (%s)", i, w.Code, c.code, w.Body.String())
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "gdb", 1), nil)
	do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "gdb", 1), nil)
	var st StatsResponse
	if w := do(t, s, "GET", "/v1/stats", nil, &st); w.Code != 200 {
		t.Fatalf("stats: %d", w.Code)
	}
	if st.Graphs != 1 || st.Computes != 1 || st.SparsifyCache.Hits != 1 || st.SparsifyCache.Misses != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestConcurrentLoadSmoke is the -race smoke: goroutines mixing cache hits,
// misses, coalesced queries and stats reads against a live httptest server.
// Every identical request must observe identical values (the engine is
// deterministic), and repeat sparsifies must never recompute.
func TestConcurrentLoadSmoke(t *testing.T) {
	s, g := newTestServer(t, Config{SparsifyCacheSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(41))
	pairs := ugs.RandomPairs(g.NumVertices(), 5, rng)
	reqPairs := make([][2]int, len(pairs))
	for i, p := range pairs {
		reqPairs[i] = [2]int{p.S, p.T}
	}

	post := func(path string, body map[string]any, out any) error {
		blob, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}

	const workers = 16
	var (
		mu           sync.Mutex
		rlSeen       = make(map[int64][]*float64) // seed → first observed values
		adaptiveSeen = make(map[int64][]*float64)
		raceFail     bool
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				seed := int64(w % 2) // two distinct specs/queries → hits and misses
				var sp SparsifyResponse
				if err := post("/v1/sparsify", sparsifyBody("g", 0.35, "gdb", seed), &sp); err != nil {
					t.Error(err)
					return
				}
				var rel QueryResponse
				err := post("/v1/query", map[string]any{
					"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 96, "seed": seed,
				}, &rel)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := rlSeen[seed]; !ok {
					rlSeen[seed] = rel.Values
				} else {
					for j := range prev {
						if *prev[j] != *rel.Values[j] {
							raceFail = true
						}
					}
				}
				mu.Unlock()
				var conn QueryResponse
				if err := post("/v1/query", map[string]any{"graph": "g", "kind": "connected", "samples": 64, "seed": seed}, &conn); err != nil {
					t.Error(err)
					return
				}
				// Adaptive and per-vertex queries exercise the planned wide
				// shape and the world-cache under concurrency; adaptive
				// results must be as deterministic as fixed ones.
				var adp QueryResponse
				err = post("/v1/query", map[string]any{
					"graph": "g", "kind": "reliability", "pairs": reqPairs, "seed": seed,
					"confidence": map[string]any{"eps": 0.1},
				}, &adp)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, ok := adaptiveSeen[seed]; !ok {
					adaptiveSeen[seed] = adp.Values
				} else {
					for j := range prev {
						if *prev[j] != *adp.Values[j] {
							raceFail = true
						}
					}
				}
				mu.Unlock()
				if err := post("/v1/query", map[string]any{"graph": "g", "kind": "pagerank", "samples": 24, "seed": seed}, nil); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if raceFail {
		t.Error("identical concurrent queries observed different values")
	}
	if got := s.Computes(); got != 2 {
		t.Errorf("computes = %d, want 2 (one per distinct spec; repeats must hit cache or share flights)", got)
	}
	st := s.batcher.Stats()
	if st.Requests == 0 {
		t.Error("batcher saw no requests")
	}
	t.Logf("batcher: %+v, sparsify cache: %+v, query cache: %+v", st, s.sparse.Stats(), s.queries.Stats())
}

// TestServerShutdownCancelsFlights: cancelling the base context makes
// in-flight background work fail fast rather than hang.
func TestServerShutdownCancelsFlights(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(ctx, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store().Add("g", ugs.FlickrLike(200, 3)); err != nil {
		t.Fatal(err)
	}
	cancel()
	w := do(t, s, "POST", "/v1/sparsify", sparsifyBody("g", 0.3, "emd", 1), nil)
	if w.Code != 503 {
		t.Errorf("sparsify after shutdown: %d, want 503 (draining)", w.Code)
	}
	if !s.DrainJobs(time.Second) {
		t.Error("jobs did not drain")
	}
}

// TestQueryPageRankAndClustering: the per-vertex kinds must match the
// direct library calls bit-for-bit, cache on repeat, and reject the knobs
// that make no sense for vector queries (pairs, confidence).
func TestQueryPageRankAndClustering(t *testing.T) {
	s, g := newTestServer(t, Config{})

	directPR, err := ugs.ExpectedPageRank(context.Background(), g,
		ugs.MCOptions{Seed: 9, Samples: 40}, ugs.PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	directCC, err := ugs.ExpectedClusteringCoefficients(context.Background(), g,
		ugs.MCOptions{Seed: 9, Samples: 40})
	if err != nil {
		t.Fatal(err)
	}
	for kind, direct := range map[string][]float64{"pagerank": directPR, "clustering": directCC} {
		var resp QueryResponse
		body := map[string]any{"graph": "g", "kind": kind, "samples": 40, "seed": 9}
		if w := do(t, s, "POST", "/v1/query", body, &resp); w.Code != 200 {
			t.Fatalf("%s: %d %s", kind, w.Code, w.Body.String())
		}
		if len(resp.Values) != g.NumVertices() || resp.Samples != 40 || resp.Cached {
			t.Fatalf("%s shape: %d values samples=%d cached=%v", kind, len(resp.Values), resp.Samples, resp.Cached)
		}
		for v, got := range resp.Values {
			if got == nil || *got != direct[v] {
				t.Fatalf("%s[%d] = %v, direct %v", kind, v, got, direct[v])
			}
		}
		var again QueryResponse
		if w := do(t, s, "POST", "/v1/query", body, &again); w.Code != 200 || !again.Cached {
			t.Errorf("%s repeat: %d cached=%v, want cache hit", kind, w.Code, again.Cached)
		}

		bad := map[string]any{"graph": "g", "kind": kind, "pairs": [][2]int{{0, 1}}}
		if w := do(t, s, "POST", "/v1/query", bad, nil); w.Code != 400 {
			t.Errorf("%s with pairs: %d, want 400", kind, w.Code)
		}
		bad = map[string]any{"graph": "g", "kind": kind, "confidence": map[string]any{"eps": 0.05}}
		if w := do(t, s, "POST", "/v1/query", bad, nil); w.Code != 400 {
			t.Errorf("%s with confidence: %d, want 400", kind, w.Code)
		}
	}
}

// TestQueryLanesAreBitIdentical: explicit widths are execution knobs only —
// every lanes value returns the same estimates, and results are served
// from the shared width-agnostic cache entry.
func TestQueryLanesAreBitIdentical(t *testing.T) {
	s, g := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	pairs := ugs.RandomPairs(g.NumVertices(), 4, rng)
	reqPairs := make([][2]int, len(pairs))
	for i, p := range pairs {
		reqPairs[i] = [2]int{p.S, p.T}
	}

	var ref QueryResponse
	base := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 192, "seed": 3}
	if w := do(t, s, "POST", "/v1/query", base, &ref); w.Code != 200 {
		t.Fatalf("base query: %d %s", w.Code, w.Body.String())
	}
	for _, lanes := range []string{"auto", "1", "64", "256"} {
		body := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 192, "seed": 3, "lanes": lanes}
		var resp QueryResponse
		if w := do(t, s, "POST", "/v1/query", body, &resp); w.Code != 200 {
			t.Fatalf("lanes=%s: %d %s", lanes, w.Code, w.Body.String())
		}
		if resp.Lanes != lanes {
			t.Errorf("lanes=%s echoed as %q", lanes, resp.Lanes)
		}
		if !resp.Cached {
			t.Errorf("lanes=%s: re-ran a width-agnostic cached query", lanes)
		}
		for i := range ref.Values {
			if *resp.Values[i] != *ref.Values[i] {
				t.Errorf("lanes=%s pair %d: %v != %v", lanes, i, *resp.Values[i], *ref.Values[i])
			}
		}
	}
	for _, lanes := range []string{"97", "128"} {
		bad := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "lanes": lanes}
		w := do(t, s, "POST", "/v1/query", bad, nil)
		if w.Code != 400 {
			t.Errorf("lanes=%s: %d, want 400", lanes, w.Code)
		} else if env := decodeEnvelope(t, w); env.Code != CodeBadRequest {
			t.Errorf("lanes=%s: code %q, want %q", lanes, env.Code, CodeBadRequest)
		}
	}
	bad := map[string]any{"graph": "g", "kind": "connected", "lanes": "1", "confidence": map[string]any{"eps": 0.05}}
	if w := do(t, s, "POST", "/v1/query", bad, nil); w.Code != 400 {
		t.Errorf("scalar lanes + confidence: %d, want 400", w.Code)
	}
}

// TestQueryConfidenceAdaptive: adaptive requests bypass the batcher and
// must match a direct adaptive library call exactly — same estimates, same
// stopped sample count — and report their run shape.
func TestQueryConfidenceAdaptive(t *testing.T) {
	s, g := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	pairs := ugs.RandomPairs(g.NumVertices(), 3, rng)
	reqPairs := make([][2]int, len(pairs))
	for i, p := range pairs {
		reqPairs[i] = [2]int{p.S, p.T}
	}

	target := ugs.WithConfidence(0.05, 0)
	target.MaxSamples = s.cfg.MaxSamples // what the server itself applies
	_, directRL, directInfo, err := ugs.ShortestDistanceAndReliabilityRun(
		context.Background(), g, pairs, ugs.MCOptions{Seed: 21, Target: target})
	if err != nil {
		t.Fatal(err)
	}

	body := map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "seed": 21,
		"confidence": map[string]any{"eps": 0.05}}
	var resp QueryResponse
	if w := do(t, s, "POST", "/v1/query", body, &resp); w.Code != 200 {
		t.Fatalf("adaptive query: %d %s", w.Code, w.Body.String())
	}
	if resp.Samples != directInfo.Samples || resp.Rounds != directInfo.Rounds {
		t.Errorf("run shape: samples=%d rounds=%d, direct %+v", resp.Samples, resp.Rounds, directInfo)
	}
	if resp.Converged == nil || *resp.Converged != directInfo.Converged {
		t.Errorf("converged = %v, direct %v", resp.Converged, directInfo.Converged)
	}
	for i := range pairs {
		if *resp.Values[i] != directRL[i] {
			t.Errorf("adaptive RL[%d] = %v, direct %v", i, *resp.Values[i], directRL[i])
		}
	}
	var again QueryResponse
	if w := do(t, s, "POST", "/v1/query", body, &again); w.Code != 200 || !again.Cached {
		t.Errorf("adaptive repeat: %d cached=%v, want cache hit", w.Code, again.Cached)
	}

	// Adaptive connectivity, same contract.
	cDirect, cInfo, err := ugs.ConnectedProbabilityRun(context.Background(), g,
		ugs.MCOptions{Seed: 4, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	var conn QueryResponse
	cBody := map[string]any{"graph": "g", "kind": "connected", "seed": 4,
		"confidence": map[string]any{"eps": 0.05}}
	if w := do(t, s, "POST", "/v1/query", cBody, &conn); w.Code != 200 {
		t.Fatalf("adaptive connected: %d %s", w.Code, w.Body.String())
	}
	if conn.Value == nil || *conn.Value != cDirect || conn.Samples != cInfo.Samples {
		t.Errorf("adaptive connected: %+v, direct %v %+v", conn, cDirect, cInfo)
	}

	// samples + confidence is nonsense: the target decides the budget.
	bad := map[string]any{"graph": "g", "kind": "connected", "samples": 100,
		"confidence": map[string]any{"eps": 0.05}}
	if w := do(t, s, "POST", "/v1/query", bad, nil); w.Code != 400 {
		t.Errorf("samples+confidence: %d, want 400", w.Code)
	}
	bad = map[string]any{"graph": "g", "kind": "connected", "confidence": map[string]any{"eps": 2.0}}
	if w := do(t, s, "POST", "/v1/query", bad, nil); w.Code != 400 {
		t.Errorf("eps=2: %d, want 400", w.Code)
	}
}

// TestQueryWorldCacheShared: mixed query kinds over the same (graph, seed)
// stream share sampled worlds — the second kind's fills must be cache hits,
// visible in /v1/stats.
func TestQueryWorldCacheShared(t *testing.T) {
	s, g := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(13))
	pairs := ugs.RandomPairs(g.NumVertices(), 3, rng)
	reqPairs := make([][2]int, len(pairs))
	for i, p := range pairs {
		reqPairs[i] = [2]int{p.S, p.T}
	}

	if w := do(t, s, "POST", "/v1/query",
		map[string]any{"graph": "g", "kind": "reliability", "pairs": reqPairs, "samples": 256, "seed": 8}, nil); w.Code != 200 {
		t.Fatalf("reliability: %d", w.Code)
	}
	var st StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.WorldCache.Misses != 4 || st.WorldCache.Entries != 4 {
		t.Fatalf("after one 256-sample run: %+v, want 4 filled blocks", st.WorldCache)
	}
	// Different kind, same stream: all four blocks come from the cache.
	if w := do(t, s, "POST", "/v1/query",
		map[string]any{"graph": "g", "kind": "connected", "samples": 256, "seed": 8}, nil); w.Code != 200 {
		t.Fatalf("connected: %d", w.Code)
	}
	do(t, s, "GET", "/v1/stats", nil, &st)
	if st.WorldCache.Misses != 4 {
		t.Errorf("connectivity re-sampled worlds: %+v", st.WorldCache)
	}
	if st.WorldCache.Hits < 4 {
		t.Errorf("cross-kind reuse hits = %d, want ≥ 4", st.WorldCache.Hits)
	}
}
