package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ugs"
	"ugs/internal/faults"
)

// mustFaults parses a fault spec or fails the test.
func mustFaults(t *testing.T, spec string, seed int64) *faults.Injector {
	t.Helper()
	inj, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// decodeEnvelope decodes a response body as the typed error envelope,
// failing the test when it is not one.
func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) APIError {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
		t.Fatalf("not a typed error envelope (%v): %s", err, w.Body.String())
	}
	return env.Error
}

// TestErrorEnvelopeShape: an unknown graph and a quarantined graph must be
// the SAME wire shape — one envelope, differing only in code, status and
// Retry-After — so clients branch on code without special cases.
func TestErrorEnvelopeShape(t *testing.T) {
	dir := t.TempDir()
	writeCorruptUgsb(t, dir, "bad.ugsb")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, Config{GraphDir: dir, QuarantineBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	query := func(graph string) *httptest.ResponseRecorder {
		return do(t, s, "POST", "/v1/query",
			map[string]any{"graph": graph, "kind": "reliability", "pairs": [][2]int{{0, 1}}, "samples": 8}, nil)
	}

	w := query("no-such-graph")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", w.Code)
	}
	unknown := decodeEnvelope(t, w)
	if unknown.Code != CodeUnknownGraph {
		t.Fatalf("unknown graph code = %q, want %q", unknown.Code, CodeUnknownGraph)
	}

	w = query("bad")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined graph: %d, want 503", w.Code)
	}
	quar := decodeEnvelope(t, w)
	if quar.Code != CodeQuarantined {
		t.Fatalf("quarantined code = %q, want %q", quar.Code, CodeQuarantined)
	}
	if quar.RetryAfterMS <= 0 || w.Header().Get("Retry-After") == "" {
		t.Fatalf("quarantined response missing Retry-After: %+v, header %q", quar, w.Header().Get("Retry-After"))
	}

	// Same shape: both bodies are a bare {"error":{...}} object.
	for _, body := range []string{query("no-such-graph").Body.String(), query("bad").Body.String()} {
		var outer map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &outer); err != nil || len(outer) != 1 {
			t.Fatalf("body is not a bare envelope: %s", body)
		}
		if _, ok := outer["error"]; !ok {
			t.Fatalf("envelope missing \"error\": %s", body)
		}
	}
}

// TestPanicRecoveryMiddleware: an injected handler panic becomes a typed 500
// internal_panic envelope, is counted, and the server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s, _ := newTestServer(t, Config{Faults: mustFaults(t, "handler.query:panic@0.5", 12)})

	var panics, ok int
	for i := 0; i < 20; i++ {
		w := do(t, s, "POST", "/v1/query",
			map[string]any{"graph": "g", "kind": "reliability", "pairs": [][2]int{{0, 1}}, "samples": 8, "seed": int64(i)}, nil)
		switch w.Code {
		case http.StatusInternalServerError:
			if e := decodeEnvelope(t, w); e.Code != CodePanic {
				t.Fatalf("panic response code = %q, want %q", e.Code, CodePanic)
			}
			panics++
		case http.StatusOK:
			ok++
		default:
			t.Fatalf("unexpected status %d: %s", w.Code, w.Body.String())
		}
	}
	if panics == 0 || ok == 0 {
		t.Fatalf("want a mix of panics and successes at rate 0.5, got %d panics / %d ok", panics, ok)
	}
	if got := s.resilience.handlerPanics.Load(); got != int64(panics) {
		t.Fatalf("handlerPanics = %d, want %d", got, panics)
	}
	var stats StatsResponse
	if w := do(t, s, "GET", "/v1/stats", nil, &stats); w.Code != 200 {
		t.Fatalf("stats after panics: %d", w.Code)
	}
	if stats.Resilience.HandlerPanics != int64(panics) || stats.Resilience.FaultsInjected == 0 {
		t.Fatalf("resilience stats = %+v", stats.Resilience)
	}
}

// TestDrainGate: once draining, every endpoint but /healthz turns work away
// with a typed 503 so balancers fail over, and the rejections are counted.
func TestDrainGate(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.StartDrain()

	w := do(t, s, "POST", "/v1/query",
		map[string]any{"graph": "g", "kind": "reliability", "pairs": [][2]int{{0, 1}}, "samples": 8}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: %d, want 503", w.Code)
	}
	if e := decodeEnvelope(t, w); e.Code != CodeDraining {
		t.Fatalf("draining code = %q, want %q", e.Code, CodeDraining)
	}
	if w := do(t, s, "GET", "/healthz", nil, nil); w.Code != 200 {
		t.Fatalf("healthz while draining: %d, want 200", w.Code)
	}
	if got := s.resilience.drainRejected.Load(); got != 1 {
		t.Fatalf("drainRejected = %d, want 1 (healthz must not count)", got)
	}
}

// TestRequestTimeout: a request whose timeout_ms cannot cover the work gets
// a typed 504 deadline_exceeded, not a hang — here the store itself is made
// slow, so the deadline dies during graph acquisition (the 1-byte budget
// evicts the boot-loaded graph, forcing the query through a faulted reload).
func TestRequestTimeout(t *testing.T) {
	dir, _ := writeUgsbDir(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := New(ctx, Config{GraphDir: dir, StoreBudgetBytes: 1,
		Faults: mustFaults(t, "store.read:slow=500ms", 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Park a background acquirer as the loader: it stalls inside the
	// injected 500ms read, so the request below queues behind the in-flight
	// load and its 50ms deadline expires while waiting.
	loaderDone := make(chan struct{})
	go func() {
		defer close(loaderDone)
		if _, _, rel, err := s.Store().AcquireCtx(context.Background(), "g0"); err == nil {
			rel()
		}
	}()
	t.Cleanup(func() { <-loaderDone })
	time.Sleep(100 * time.Millisecond) // loader is inside the slow read

	w := do(t, s, "POST", "/v1/query",
		map[string]any{"graph": "g0", "kind": "reliability", "pairs": [][2]int{{0, 1}},
			"samples": 8, "timeout_ms": 50}, nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow acquire: %d, want 504\n%s", w.Code, w.Body.String())
	}
	if e := decodeEnvelope(t, w); e.Code != CodeDeadline {
		t.Fatalf("deadline code = %q, want %q", e.Code, CodeDeadline)
	}
	if got := s.resilience.timeouts.Load(); got == 0 {
		t.Fatal("timeouts counter not incremented")
	}
}

// TestOverloadShedsWith429: with capacity held and the wait queue full, new
// queries shed immediately with a retryable typed 429.
func TestOverloadShedsWith429(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxCost: 1000, MaxQueue: 1})

	// Hold the whole capacity, then park one waiter to fill the queue.
	release, err := s.limiter.Acquire(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
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

	w := do(t, s, "POST", "/v1/query",
		map[string]any{"graph": "g", "kind": "reliability", "pairs": [][2]int{{0, 1}}, "samples": 8}, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded query: %d, want 429\n%s", w.Code, w.Body.String())
	}
	e := decodeEnvelope(t, w)
	if e.Code != CodeOverloaded || e.RetryAfterMS < 1000 {
		t.Fatalf("shed envelope = %+v, want overloaded with Retry-After >= 1s", e)
	}
	var stats StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Limiter.Shed == 0 || stats.Resilience.Shed == 0 {
		t.Fatalf("shed not counted: limiter %+v resilience %+v", stats.Limiter, stats.Resilience)
	}
}

// TestDegradedAdaptiveQuery: under limiter pressure an adaptive query
// shrinks its budget and answers degraded (with its achieved accuracy)
// instead of queueing at full cost; a repeat hit serves the degraded entry
// stale and kicks off exactly one background full-budget revalidation. A
// revalidation that cannot reload its evicted graph is counted in
// revalidation_failures: a store budget that holds just the test graph
// makes it evictable, and every store read fails (which no request notices
// while the graph stays resident). A replaced graph, a name that no longer
// resolves and shutdown are not counted.
func TestDegradedAdaptiveQuery(t *testing.T) {
	ctx, shutdown := context.WithCancel(context.Background())
	t.Cleanup(shutdown)
	g := ugs.TwitterLike(80, 7)
	s, err := New(ctx, Config{MaxCost: 1 << 40, MaxSamples: 4096,
		StoreBudgetBytes: heapGraphBytes(g), Faults: mustFaults(t, "store.read:err", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store().Add("g", g); err != nil {
		t.Fatal(err)
	}

	// Occupy 80% of capacity so Pressure() crosses the 0.75 default.
	release, err := s.limiter.Acquire(context.Background(), (1<<40)*8/10)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	body := map[string]any{"graph": "g", "kind": "reliability",
		"pairs": [][2]int{{0, g.NumVertices() - 1}}, "seed": 3,
		"confidence": map[string]any{"eps": 0.00001}} // unreachably tight: never converges
	var resp QueryResponse
	if w := do(t, s, "POST", "/v1/query", body, &resp); w.Code != 200 {
		t.Fatalf("degraded query: %d %s", w.Code, w.Body.String())
	}
	if !resp.Degraded || resp.Converged == nil || *resp.Converged {
		t.Fatalf("response not degraded: %+v", resp)
	}
	if resp.AchievedEps <= 0 {
		t.Fatalf("degraded response missing achieved_eps: %+v", resp)
	}
	if resp.Samples > 4096/4 {
		t.Fatalf("degraded run drew %d samples, want at most the shrunk budget %d", resp.Samples, 4096/4)
	}

	// Repeat: served stale from the cache while a single full-budget
	// revalidation runs in the background.
	var again QueryResponse
	if w := do(t, s, "POST", "/v1/query", body, &again); w.Code != 200 || !again.Cached {
		t.Fatalf("repeat degraded query not cached: %d %+v", w.Code, again)
	}
	if s.resilience.staleServed.Load() == 0 {
		t.Fatal("stale hit not counted")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var third QueryResponse
		do(t, s, "POST", "/v1/query", body, &third)
		if third.Samples > 4096/4 {
			break // fresh full-budget entry swapped in via Replace
		}
		if time.Now().After(deadline) {
			t.Fatalf("revalidated entry never appeared (still %d samples)", third.Samples)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.resilience.revalidations.Load(); got != 1 {
		t.Fatalf("revalidations = %d, want exactly 1 (the fresh entry must not respawn recomputes)", got)
	}
	var stats StatsResponse
	do(t, s, "GET", "/v1/stats", nil, &stats)
	if stats.Resilience.Degraded == 0 || stats.Resilience.StaleServed == 0 {
		t.Fatalf("resilience stats missing degradation: %+v", stats.Resilience)
	}
	if stats.Resilience.RevalFailures != 0 {
		t.Fatalf("revalidation_failures = %d after a successful revalidation", stats.Resilience.RevalFailures)
	}

	// A fresh degraded entry (another seed), then its graph is evicted by
	// admitting a second one over the budget. The request path would now
	// fail at acquisition before reaching the cache, so the entry's
	// revalidations are started directly.
	body["seed"] = 4
	req := QueryRequest{Graph: "g", Kind: "reliability", Pairs: [][2]int{{0, g.NumVertices() - 1}}, Seed: 4,
		Confidence: &Confidence{Eps: 0.00001}}
	if w := do(t, s, "POST", "/v1/query", body, &resp); w.Code != 200 || !resp.Degraded {
		t.Fatalf("second degraded query: %d %+v", w.Code, resp)
	}
	_, gid, rel, err := s.Store().AcquireCtx(context.Background(), "g")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if err := s.Store().Add("h", ugs.TwitterLike(40, 8)); err != nil {
		t.Fatal(err)
	}
	p, err := planQuery(&req, s.cfg, time.Now(), time.Time{}, func() float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	key := queryKey(&p, gid)
	stale, ok := s.queries.Get(key)
	if !ok || stale.info.Converged {
		t.Fatalf("no degraded entry under %q", key)
	}
	// revalidateOnce runs one revalidation of the stale entry against the
	// graph registered under name and waits for it to give the entry up.
	revalidateOnce := func(step, name string, wantRevals, wantFailures int64) {
		t.Helper()
		s.revalidate(&p, name, gid, key, stale)
		for deadline := time.Now().Add(10 * time.Second); stale.revalidating.Load(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the revalidation never released its entry", step)
			}
		}
		do(t, s, "GET", "/v1/stats", nil, &stats)
		if stats.Resilience.Revalidations != wantRevals || stats.Resilience.RevalFailures != wantFailures {
			t.Fatalf("%s: revalidations %d, revalidation_failures %d; want %d and %d", step,
				stats.Resilience.Revalidations, stats.Resilience.RevalFailures, wantRevals, wantFailures)
		}
	}

	// The reload hits the injected read error: the stale entry keeps
	// serving, and the failure is counted.
	revalidateOnce("evicted graph", "g", 2, 1)
	if e, _ := s.queries.Get(key); e != stale {
		t.Fatal("a failed revalidation replaced the stale entry")
	}
	// The graph is replaced under its name: the key names a dead
	// generation, so nothing is recomputed and nothing counted.
	if err := s.Store().Add("g", ugs.TwitterLike(80, 7)); err != nil {
		t.Fatal(err)
	}
	revalidateOnce("replaced graph", "g", 3, 1)
	// A name that no longer resolves is as dead as a replaced generation.
	revalidateOnce("unknown graph", "gone", 4, 1)
	// Shutdown cancels the base context the revalidation runs under.
	shutdown()
	revalidateOnce("shutdown", "g", 5, 1)
}

// TestCoalescedFlightDeadline: when every rider of a batched flight times
// out, the flight is cancelled at batch granularity, all waiters get clean
// typed deadline errors, and no goroutines leak.
func TestCoalescedFlightDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s, _ := newTestServer(t, Config{Faults: mustFaults(t, "batcher.flight:slow=400ms", 1)})
		body, err := json.Marshal(map[string]any{"graph": "g", "kind": "reliability",
			"pairs": [][2]int{{0, 1}}, "samples": 64, "seed": 5, "timeout_ms": 60})
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		codes := make([]int, 2)
		envs := make([]APIError, 2)
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := httptest.NewRequest("POST", "/v1/query", strings.NewReader(string(body)))
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, r)
				codes[i] = w.Code
				var env errorEnvelope
				_ = json.Unmarshal(w.Body.Bytes(), &env)
				envs[i] = env.Error
			}(i)
		}
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusGatewayTimeout || envs[i].Code != CodeDeadline {
				t.Fatalf("rider %d: status %d code %q, want 504 deadline_exceeded", i, code, envs[i].Code)
			}
		}
		// The abandoned flight must be observed once the batcher settles.
		for i := 0; s.batcher.Stats().AbandonedFlights == 0; i++ {
			if i > 1000 {
				t.Fatal("flight never recorded as abandoned")
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Leak check: the slow flight and both riders are gone; allow slack for
	// unrelated runtime goroutines.
	for i := 0; runtime.NumGoroutine() > before+8; i++ {
		if i > 400 {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosMixedTraffic hammers a fault-injected server with concurrent
// mixed traffic under -race: every failure must be a typed envelope (no
// bare 500s), panics must all be recovered and counted, and the server must
// still answer once the storm passes.
func TestChaosMixedTraffic(t *testing.T) {
	s, g := newTestServer(t, Config{
		MaxCost: 1 << 50,
		Faults:  mustFaults(t, "handler.query:panic@0.15;batcher.flight:err@0.2", 99),
	})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, WithRetries(2), WithBackoff(time.Millisecond, 10*time.Millisecond))

	var nonEnvelope atomic.Int64
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				switch i % 3 {
				case 0:
					_, err := client.Query(context.Background(), &QueryRequest{
						Graph: "g", Kind: "reliability",
						Pairs:   [][2]int{{worker % g.NumVertices(), (worker*7 + i) % g.NumVertices()}},
						Samples: 16, Seed: int64(worker*1000 + i)})
					countNonEnvelope(err, &nonEnvelope)
				case 1:
					_, err := client.Sparsify(context.Background(), &SparsifyRequest{
						Graph: "g", Alpha: 0.4, Spec: ugs.Spec{Method: "emd", Seed: 1}})
					countNonEnvelope(err, &nonEnvelope)
				default:
					_, err := client.Stats(context.Background())
					countNonEnvelope(err, &nonEnvelope)
				}
			}
		}(worker)
	}
	wg.Wait()

	if n := nonEnvelope.Load(); n != 0 {
		t.Fatalf("%d responses were not typed envelopes", n)
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats after chaos: %v", err)
	}
	if stats.Resilience.HandlerPanics == 0 {
		t.Fatal("no panics recovered at rate 0.15 over 40 queries")
	}
	if stats.Resilience.FaultsInjected == 0 {
		t.Fatal("fault injector reports zero injections")
	}
	// The server survives: a query after the storm still succeeds (retrying
	// past injected panics/errors, which keep firing at their rate).
	for i := 0; ; i++ {
		resp, err := client.Query(context.Background(), &QueryRequest{
			Graph: "g", Kind: "reliability", Pairs: [][2]int{{0, 1}}, Samples: 16, Seed: 424242})
		if err == nil {
			if len(resp.Values) != 1 {
				t.Fatalf("post-chaos query shape: %+v", resp)
			}
			break
		}
		if i > 50 {
			t.Fatalf("server never recovered: %v", err)
		}
	}
}

// countNonEnvelope increments n when err is a failure that did NOT decode as
// a typed envelope (the client synthesizes those with an "HTTP <status>"
// message).
func countNonEnvelope(err error, n *atomic.Int64) {
	if err == nil {
		return
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || strings.HasPrefix(apiErr.Message, "HTTP ") {
		n.Add(1)
	}
}
