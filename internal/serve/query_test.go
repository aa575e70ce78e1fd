package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ugs"
)

// fmtQueryKey spells a query's cache key with fmt verbs, the way
// bench/pipeline.go's byte-for-byte copies of the key functions do.
// queryKey builds the same bytes with appends; the two must never differ.
func fmtQueryKey(kind, gid string, opts ugs.MCOptions, pairs []ugs.Pair) string {
	key := fmt.Sprintf("%s|s=%d|n=%d", gid, opts.Seed, opts.Samples)
	if t := opts.Target; t != nil {
		key += fmt.Sprintf("|eps=%g,delta=%g,max=%d", t.Eps, t.Delta, t.MaxSamples)
	}
	switch kind {
	case "reliability", "distance":
		h := sha256.New()
		var buf [16]byte
		for _, p := range pairs {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(p.S))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(p.T))
			h.Write(buf[:])
		}
		return fmt.Sprintf("pq|%s|%x", key, h.Sum(nil)[:16])
	case "connected":
		return "cn|" + key
	}
	return kind + "|" + key
}

// TestPlanQuery drives planQuery directly — no server, store or HTTP. Every
// graph-free rejection answers an error before anything reads the limiter;
// valid plans resolve the defaults, the adaptive target, the deadline
// back-off and the pressure shrink, keep the key options at the full budget
// without a deadline, and key exactly as fmtQueryKey spells it.
func TestPlanQuery(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	pairs := [][2]int{{0, 1}, {2, 3}, {7, 5}}
	conf := &Confidence{Eps: 0.05}
	busy := func() float64 { return degradePressure }
	idle := func() float64 { return degradePressure - 0.01 }

	cases := []struct {
		name     string
		req      QueryRequest
		cfg      Config
		deadline time.Time
		// pressure is the limiter reading; nil means the plan must not read
		// it (fixed budgets and every rejected request).
		pressure func() float64
		err      string // substring of the rejection; empty for a valid plan
		check    func(t *testing.T, p queryPlan)
	}{
		// Graph-free rejections from TestQueryValidation,
		// TestQueryPageRankAndClustering, TestQueryLanesAreBitIdentical
		// and TestQueryConfidenceAdaptive.
		{name: "unknown kind", req: QueryRequest{Kind: "bogus", Pairs: pairs}, err: "unknown kind"},
		{name: "empty kind", req: QueryRequest{}, err: "unknown kind"},
		{name: "pairs missing", req: QueryRequest{Kind: "reliability"}, err: "pairs required"},
		{name: "distance pairs missing", req: QueryRequest{Kind: "distance"}, err: "pairs required"},
		{name: "samples over cap", req: QueryRequest{Kind: "reliability", Pairs: pairs, Samples: 501},
			cfg: Config{MaxSamples: 500}, err: "samples 501 outside [1, 500]"},
		{name: "negative samples", req: QueryRequest{Kind: "connected", Samples: -1}, err: "samples -1 outside"},
		{name: "connected with pairs", req: QueryRequest{Kind: "connected", Pairs: pairs}, err: "connected queries take no pairs"},
		{name: "pagerank with pairs", req: QueryRequest{Kind: "pagerank", Pairs: pairs}, err: "pagerank queries take no pairs"},
		{name: "clustering with pairs", req: QueryRequest{Kind: "clustering", Pairs: pairs}, err: "clustering queries take no pairs"},
		{name: "pagerank with confidence", req: QueryRequest{Kind: "pagerank", Confidence: conf}, err: "not supported for pagerank"},
		{name: "clustering with confidence", req: QueryRequest{Kind: "clustering", Confidence: conf}, err: "not supported for clustering"},
		{name: "lanes 97", req: QueryRequest{Kind: "reliability", Pairs: pairs, Lanes: "97"}, err: "lane"},
		{name: "lanes 128", req: QueryRequest{Kind: "reliability", Pairs: pairs, Lanes: "128"}, err: "lane"},
		{name: "fan-out 65", req: QueryRequest{Kind: "reliability", Pairs: pairs, FanOut: "65"}, err: "fan"},
		{name: "fan-out 4", req: QueryRequest{Kind: "reliability", Pairs: pairs, FanOut: "4"}, err: "fan"},
		{name: "scalar lanes with confidence", req: QueryRequest{Kind: "connected", Lanes: "1", Confidence: conf}, err: "Lanes: 1"},
		{name: "samples with confidence", req: QueryRequest{Kind: "connected", Samples: 100, Confidence: conf}, err: "mutually exclusive"},
		{name: "eps 2", req: QueryRequest{Kind: "connected", Confidence: &Confidence{Eps: 2}}, err: "eps 2 outside"},
		{name: "delta 1", req: QueryRequest{Kind: "reliability", Pairs: pairs, Confidence: &Confidence{Eps: 0.1, Delta: 1}}, err: "delta 1 outside"},

		{name: "default budget and engine shape", req: QueryRequest{Kind: "reliability", Pairs: pairs, Seed: 9},
			cfg: Config{Workers: 3},
			check: func(t *testing.T, p queryPlan) {
				want := ugs.MCOptions{Seed: 9, Samples: 500, Workers: 3}
				if p.run != want || p.key != want {
					t.Errorf("run %+v key %+v, want both %+v", p.run, p.key, want)
				}
				if len(p.pairs) != 3 || p.pairs[2] != (ugs.Pair{S: 7, T: 5}) {
					t.Errorf("pairs %v", p.pairs)
				}
			}},
		{name: "server lanes and fan-out", req: QueryRequest{Kind: "distance", Pairs: pairs, Samples: 64},
			cfg: Config{Lanes: 64, FanOut: 8},
			check: func(t *testing.T, p queryPlan) {
				if p.run.Lanes != 64 || p.run.FanOut != 8 {
					t.Errorf("lanes %d fan-out %d, want the server's 64 / 8", p.run.Lanes, p.run.FanOut)
				}
			}},
		{name: "request lanes and fan-out win", req: QueryRequest{Kind: "reliability", Pairs: pairs, Lanes: "256", FanOut: "1"},
			cfg: Config{Lanes: 64, FanOut: 8},
			check: func(t *testing.T, p queryPlan) {
				if p.run.Lanes != 256 || p.run.FanOut != 1 || p.key.Lanes != 256 {
					t.Errorf("lanes %d fan-out %d, want the request's 256 / 1", p.run.Lanes, p.run.FanOut)
				}
			}},
		{name: "request auto overrides server", req: QueryRequest{Kind: "connected", Lanes: "auto", FanOut: "auto"},
			cfg: Config{Lanes: 1, FanOut: 1},
			check: func(t *testing.T, p queryPlan) {
				if p.run.Lanes != 0 || p.run.FanOut != 0 {
					t.Errorf("lanes %d fan-out %d, want auto (0 / 0)", p.run.Lanes, p.run.FanOut)
				}
			}},
		{name: "fixed budget ignores deadline", req: QueryRequest{Kind: "pagerank", Samples: 40},
			deadline: now.Add(time.Second),
			check: func(t *testing.T, p queryPlan) {
				if p.run.Samples != 40 || p.run.Target != nil || p.key.Target != nil {
					t.Errorf("run %+v key %+v", p.run, p.key)
				}
			}},
		{name: "adaptive target capped by the server", req: QueryRequest{Kind: "connected", Confidence: &Confidence{Eps: 0.05, Delta: 0.01}},
			cfg: Config{MaxSamples: 4096}, pressure: idle,
			check: func(t *testing.T, p queryPlan) {
				want := ugs.MCTarget{Eps: 0.05, Delta: 0.01, MaxSamples: 4096}
				if p.run.Samples != 0 || *p.run.Target != want || *p.key.Target != want {
					t.Errorf("run %+v key %+v, want target %+v", p.run.Target, p.key.Target, want)
				}
			}},
		{name: "min samples clamped to a small cap", req: QueryRequest{Kind: "reliability", Pairs: pairs, Confidence: conf},
			cfg: Config{MaxSamples: 100}, pressure: busy,
			check: func(t *testing.T, p queryPlan) {
				// Pressure cannot shrink a budget already below the floor.
				for _, tg := range []*ugs.MCTarget{p.run.Target, p.key.Target} {
					if tg.MinSamples != 100 || tg.MaxSamples != 100 {
						t.Errorf("target %+v, want min = max = the 100-sample cap", *tg)
					}
				}
			}},
		{name: "no deadline, no engine deadline", req: QueryRequest{Kind: "connected", Confidence: conf}, pressure: idle,
			check: func(t *testing.T, p queryPlan) {
				if !p.run.Target.Deadline.IsZero() || !p.key.Target.Deadline.IsZero() {
					t.Errorf("engine deadline %v without a request deadline", p.run.Target.Deadline)
				}
			}},
		{name: "short deadline backs off a tenth", req: QueryRequest{Kind: "connected", Confidence: conf},
			deadline: now.Add(time.Second), pressure: idle,
			check: func(t *testing.T, p queryPlan) {
				if want := now.Add(900 * time.Millisecond); !p.run.Target.Deadline.Equal(want) {
					t.Errorf("engine deadline %v, want %v", p.run.Target.Deadline, want)
				}
				if !p.key.Target.Deadline.IsZero() {
					t.Errorf("key options carry deadline %v", p.key.Target.Deadline)
				}
			}},
		{name: "long deadline backs off 200ms", req: QueryRequest{Kind: "distance", Pairs: pairs, Confidence: conf},
			deadline: now.Add(5 * time.Second), pressure: idle,
			check: func(t *testing.T, p queryPlan) {
				if want := now.Add(4800 * time.Millisecond); !p.run.Target.Deadline.Equal(want) {
					t.Errorf("engine deadline %v, want %v", p.run.Target.Deadline, want)
				}
			}},
		{name: "pressure shrinks the run budget only", req: QueryRequest{Kind: "reliability", Pairs: pairs, Confidence: conf},
			pressure: busy,
			check: func(t *testing.T, p queryPlan) {
				if p.run.Target.MaxSamples != 5000 || p.key.Target.MaxSamples != 20000 {
					t.Errorf("run max %d key max %d, want 5000 / 20000", p.run.Target.MaxSamples, p.key.Target.MaxSamples)
				}
			}},
		{name: "pressure shrink floors at 128", req: QueryRequest{Kind: "connected", Confidence: conf},
			cfg: Config{MaxSamples: 400}, pressure: busy,
			check: func(t *testing.T, p queryPlan) {
				if p.run.Target.MaxSamples != degradedMinSamples || p.key.Target.MaxSamples != 400 {
					t.Errorf("run max %d key max %d, want %d / 400", p.run.Target.MaxSamples, p.key.Target.MaxSamples, degradedMinSamples)
				}
			}},
		{name: "below the threshold nothing shrinks", req: QueryRequest{Kind: "connected", Confidence: conf},
			pressure: idle,
			check: func(t *testing.T, p queryPlan) {
				if p.run.Target.MaxSamples != 20000 {
					t.Errorf("run max %d under pressure %v", p.run.Target.MaxSamples, idle())
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pressure := c.pressure
			if pressure == nil {
				pressure = func() float64 {
					t.Error("plan read the limiter pressure")
					return 0
				}
			}
			req := c.req
			p, err := planQuery(&req, c.cfg.withDefaults(), now, c.deadline, pressure)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("error %v, want one containing %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid request rejected: %v", err)
			}
			c.check(t, p)
			if got, want := queryKey(&p, "g@3"), fmtQueryKey(c.req.Kind, "g@3", p.key, p.pairs); got != want {
				t.Errorf("key %q, want %q", got, want)
			}
		})
	}
}

// TestMalformedQueryIsNotAdmitted: a query that can never succeed is
// rejected before admission. With the whole capacity held it answers 400 —
// not a 504 after waiting out its deadline in the queue, and not a
// retryable 429 once the queue is full.
func TestMalformedQueryIsNotAdmitted(t *testing.T) {
	s, g := newTestServer(t, Config{MaxCost: 1000, MaxQueue: 1})
	release, err := s.limiter.Acquire(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	badRequest := func(body map[string]any) {
		t.Helper()
		w := do(t, s, "POST", "/v1/query", body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%v: %d, want 400\n%s", body, w.Code, w.Body.String())
		} else if e := decodeEnvelope(t, w); e.Code != CodeBadRequest {
			t.Errorf("%v: code %q, want %q", body, e.Code, CodeBadRequest)
		}
	}

	// Room in the queue: the unknown kind must not wait there for its
	// deadline.
	badRequest(map[string]any{"graph": "g", "kind": "bogus", "pairs": [][2]int{{0, 1}}, "samples": 8, "timeout_ms": 50})
	if got := s.resilience.timeouts.Load(); got != 0 {
		t.Errorf("timeouts = %d, want 0", got)
	}

	// Queue full: park one waiter behind the held capacity.
	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	defer waiterCancel()
	go func() {
		if rel, err := s.limiter.Acquire(waiterCtx, 1); err == nil {
			rel()
		}
	}()
	for i := 0; s.limiter.Stats().Queued != 1; i++ {
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	for _, body := range []map[string]any{
		{"graph": "g", "kind": "bogus", "pairs": [][2]int{{0, 1}}, "samples": 8},
		{"graph": "g", "kind": "reliability", "pairs": [][2]int{{0, g.NumVertices()}}, "samples": 8},
		{"graph": "g", "kind": "connected", "pairs": [][2]int{{0, 1}}, "samples": 8},
		{"graph": "g", "kind": "distance", "samples": 8},
		{"graph": "g", "kind": "pagerank", "confidence": map[string]any{"eps": 0.05}},
	} {
		badRequest(body)
	}
	if st := s.limiter.Stats(); st.Shed != 0 {
		t.Fatalf("limiter shed %d malformed queries, want 0", st.Shed)
	}
}

// TestAnsweredRequestsTakeNoSlot: admission charges only the work that will
// run. With the whole capacity held, a repeat of an answered query and of an
// answered sparsify still answers 200 from the cache inside a 200 ms
// deadline, instead of queueing until it expires.
func TestAnsweredRequestsTakeNoSlot(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxCost: 1000, MaxQueue: 1})
	query := reliabilityBody("g", 256, 3)
	sparsify := sparsifyBody("g", 0.3, "gdb", 1)
	for path, body := range map[string]map[string]any{"/v1/query": query, "/v1/sparsify": sparsify} {
		if w := do(t, s, "POST", path, body, nil); w.Code != 200 {
			t.Fatalf("first %s: %d %s", path, w.Code, w.Body.String())
		}
	}
	release, err := s.limiter.Acquire(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	before := s.limiter.Stats()

	query["timeout_ms"], sparsify["timeout_ms"] = 200, 200
	var q QueryResponse
	if w := do(t, s, "POST", "/v1/query", query, &q); w.Code != 200 || !q.Cached {
		t.Errorf("repeat query under full capacity: %d %s, want 200 cached", w.Code, w.Body.String())
	}
	var sp SparsifyResponse
	if w := do(t, s, "POST", "/v1/sparsify", sparsify, &sp); w.Code != 200 || !sp.Cached {
		t.Errorf("repeat sparsify under full capacity: %d %s, want 200 cached", w.Code, w.Body.String())
	}
	if st := s.limiter.Stats(); st.Admitted != before.Admitted || st.EverQueue != before.EverQueue {
		t.Errorf("cache hits went through admission: limiter %+v, before %+v", st, before)
	}
}

// TestRidersTakeNoSlot: a request that joins an in-flight computation
// shares its answer without queueing for a slot of its own, even when the
// computation holds the whole capacity.
func TestRidersTakeNoSlot(t *testing.T) {
	t.Run("query", func(t *testing.T) {
		s, _ := newTestServer(t, Config{MaxCost: 1000, MaxQueue: 1})
		started, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		gate := func() { once.Do(func() { close(started); <-release }) }
		s.batcher.run = func(ctx context.Context, g *ugs.Graph, pairs []ugs.Pair, opts ugs.MCOptions) ([]float64, []float64, error) {
			opts.FillCache = gatedFills{inner: opts.FillCache, gate: gate}
			return ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts)
		}
		body := reliabilityBody("g", 256, 3)
		owner := make(chan *httptest.ResponseRecorder, 1)
		go func() { owner <- serve(s, "POST", "/v1/query", body) }()
		<-started
		rider := make(chan *httptest.ResponseRecorder, 1)
		body["timeout_ms"] = 5000
		go func() { rider <- serve(s, "POST", "/v1/query", body) }()
		waitFor(t, "the rider to join the flight", func() bool { return s.queries.Stats().Shared == 1 })
		close(release)
		for name, ch := range map[string]chan *httptest.ResponseRecorder{"owner": owner, "rider": rider} {
			if w := <-ch; w.Code != 200 {
				t.Errorf("%s: %d %s", name, w.Code, w.Body.String())
			}
		}
		if st := s.limiter.Stats(); st.Admitted != 1 || st.EverQueue != 0 {
			t.Errorf("limiter %+v, want the owner admitted and nobody queued", st)
		}
	})
	t.Run("sparsify", func(t *testing.T) {
		s, _ := newTestServer(t, Config{MaxCost: 1000, MaxQueue: 1})
		method, started, release := gatedMethod(t)
		body := sparsifyBody("g", 0.3, method, 1)
		owner := make(chan *httptest.ResponseRecorder, 1)
		go func() { owner <- serve(s, "POST", "/v1/sparsify", body) }()
		<-started
		rider := make(chan *httptest.ResponseRecorder, 1)
		go func() { rider <- serve(s, "POST", "/v1/sparsify", body) }()
		waitFor(t, "the rider to join the flight", func() bool { return s.sparse.Stats().Shared == 1 })
		close(release)
		for name, ch := range map[string]chan *httptest.ResponseRecorder{"owner": owner, "rider": rider} {
			if w := <-ch; w.Code != 200 {
				t.Errorf("%s: %d %s", name, w.Code, w.Body.String())
			}
		}
		if st := s.limiter.Stats(); st.Admitted != 1 || st.EverQueue != 0 {
			t.Errorf("limiter %+v, want the owner admitted and nobody queued", st)
		}
	})
}

// TestRiderOfShedOwnerRetries: the limiter sheds the owner of a flight
// that another caller has joined. The rider was not shed itself, so it
// runs the computation under its own admission instead of inheriting the
// 429.
func TestRiderOfShedOwnerRetries(t *testing.T) {
	c := NewCache[int](4)
	var retries atomic.Int64
	started, shed := make(chan struct{}), make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := doRetrying(context.Background(), c, "k", &retries, func() (int, error) {
			close(started)
			<-shed
			return 0, ErrOverloaded
		})
		ownerErr <- err
	}()
	<-started
	riderDone := make(chan int, 1)
	go func() {
		v, _, err := doRetrying(context.Background(), c, "k", &retries, func() (int, error) { return 7, nil })
		if err != nil {
			t.Errorf("rider: %v", err)
		}
		riderDone <- v
	}()
	waitFor(t, "the rider to join the flight", func() bool { return c.Stats().Shared == 1 })
	close(shed)
	if err := <-ownerErr; !errors.Is(err, ErrOverloaded) {
		t.Errorf("owner: %v, want its own shed", err)
	}
	if v := <-riderDone; v != 7 || retries.Load() != 1 {
		t.Errorf("rider got %d after %d retries, want 7 after 1", v, retries.Load())
	}
}

// TestMalformedRequestsDoNotLoadGraphs: under a 1-byte store budget, a
// malformed query, sparsify or job naming an evicted graph answers 400
// without reloading it (and so without evicting anything else).
func TestMalformedRequestsDoNotLoadGraphs(t *testing.T) {
	dir, _ := writeUgsbDir(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, Config{GraphDir: dir, StoreBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// Make g1 the resident graph, so g0 is evicted.
	_, _, rel, err := s.Store().AcquireCtx(context.Background(), "g1")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	before := s.Store().Stats()

	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/query", map[string]any{"graph": "g0", "kind": "bogus", "samples": 8}},
		{"/v1/query", map[string]any{"graph": "g0", "kind": "connected", "lanes": "97"}},
		{"/v1/sparsify", map[string]any{"graph": "g0", "alpha": 7, "method": "gdb"}},
		{"/v1/jobs", map[string]any{"graph": "g0", "alpha": 0.3, "method": "bogus"}},
	} {
		w := do(t, s, "POST", c.path, c.body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %v: %d, want 400\n%s", c.path, c.body, w.Code, w.Body.String())
		}
		after := s.Store().Stats()
		if after.Loads != before.Loads || after.Evictions != before.Evictions {
			t.Errorf("%s %v moved the store: loads %d → %d, evictions %d → %d", c.path, c.body,
				before.Loads, after.Loads, before.Evictions, after.Evictions)
		}
		before = after
	}
}

// readRecorder is a request body that records whether anything read it.
type readRecorder struct {
	r    *strings.Reader
	read atomic.Bool
}

func (b *readRecorder) Read(p []byte) (int, error) {
	b.read.Store(true)
	return b.r.Read(p)
}

// TestUploadInvalidNameReadsNoBody: an upload to a name the store would
// refuse is rejected before its body — up to 256 MiB — is parsed.
func TestUploadInvalidNameReadsNoBody(t *testing.T) {
	s, g := newTestServer(t, Config{})
	var text bytes.Buffer
	if err := ugs.WriteGraph(&text, g); err != nil {
		t.Fatal(err)
	}
	body := &readRecorder{r: strings.NewReader(text.String())}
	w := serve(s, "POST", "/v1/graphs/bad@name", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("upload to bad@name: %d, want 400\n%s", w.Code, w.Body.String())
	}
	if body.read.Load() {
		t.Fatal("the body of an upload to an invalid name was read")
	}
}

// BenchmarkQueryCacheHit serves an answer from the query cache through the
// full handler (decode, plan, acquire, admit, key, hit, encode), once per
// result shape: per-pair values, one scalar, per-vertex values.
func BenchmarkQueryCacheHit(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := New(ctx, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Store().Add("twitter80", ugs.TwitterLike(80, 7)); err != nil {
		b.Fatal(err)
	}
	pairs := make([][2]int, 8)
	for i := range pairs {
		pairs[i] = [2]int{i, 79 - i}
	}
	for _, c := range []struct {
		kind string
		body map[string]any
	}{
		{"reliability", map[string]any{"graph": "twitter80", "kind": "reliability", "pairs": pairs, "samples": 64, "seed": 1}},
		{"connected", map[string]any{"graph": "twitter80", "kind": "connected", "samples": 64, "seed": 1}},
		{"pagerank", map[string]any{"graph": "twitter80", "kind": "pagerank", "samples": 16, "seed": 1}},
	} {
		blob, err := json.Marshal(c.body)
		if err != nil {
			b.Fatal(err)
		}
		query := func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(blob)))
			return w
		}
		b.Run(c.kind, func(b *testing.B) {
			if w := query(); w.Code != http.StatusOK {
				b.Fatalf("warm-up: %d %s", w.Code, w.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if w := query(); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cached": true`)) {
					b.Fatalf("not a cache hit: %d %s", w.Code, w.Body.String())
				}
			}
		})
	}
}
