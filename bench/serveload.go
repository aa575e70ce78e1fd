package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"ugs"
	"ugs/internal/serve"
)

// serveWorkload is a traffic mix sent to ugs-serve.
type serveWorkload struct {
	rate     float64 // measured ops per second of the open loop
	fixtures []fixture
	examples bool // also serve the committed example graphs
	// samples is the sample budget of the mix's pair queries (the planner
	// metrics are read for it).
	samples int
	config  func(fx *fixtureSet) serve.Config
	// prepare runs after boot, inside set-up (query_hot computes the
	// sparsified graph it queries).
	prepare func(ctx context.Context, ex executor, fx *fixtureSet) error
	// ops builds warmupOps+n ops; dues are assigned by the caller.
	ops func(rng *rand.Rand, n int, fx *fixtureSet) ([]op, error)
	// gates returns the validity violations seen in the window's counters.
	gates func(d statsDelta, quick bool) []string
}

// fixtureSet is what set-up produced: the graphs as generated or loaded (for
// op generation and verification) and ids set-up learned from the server.
type fixtureSet struct {
	graphs map[string]*ugs.Graph
	spID   string // query_hot's sparsified-graph id
	sparse *ugs.Graph
}

// executor sends one op to the system under test: the real handler, or the
// traced pipeline rebuilt from serve's exported parts.
type executor interface {
	do(ctx context.Context, o *op, req int) (status int, body []byte)
	stats(ctx context.Context) (serve.StatsResponse, error)
	close()
}

// handlerExec drives serve.Server through its HTTP handler in-process, with
// no sockets.
type handlerExec struct {
	srv    *serve.Server
	cancel context.CancelFunc
}

func (h *handlerExec) do(ctx context.Context, o *op, _ int) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, o.method, o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (h *handlerExec) stats(ctx context.Context) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	code, body := h.do(ctx, &op{method: http.MethodGet, path: "/v1/stats"}, 0)
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

func (h *handlerExec) close() {
	h.cancel()
	h.srv.DrainJobs(10 * time.Second)
	h.srv.Close()
}

// statsDelta pairs the counters read before and after the window.
type statsDelta struct{ before, after serve.StatsResponse }

func (d statsDelta) queryHitRatio() float64 {
	b, a := d.before.QueryCache, d.after.QueryCache
	return ratio(a.Hits-b.Hits, (a.Hits-b.Hits)+(a.Misses-b.Misses)+(a.Shared-b.Shared))
}

// compactions counts sidecar rewrites in the window: after boot the store
// writes a sidecar only when it compacts a patch log.
func (d statsDelta) compactions() int64 {
	return d.after.Store.Conversions - d.before.Store.Conversions
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runConfig is what one benchmark run was asked to do.
type runConfig struct {
	seed    int64
	window  time.Duration
	traced  bool
	quick   bool
	workdir string
	spans   string // file the traced run writes its spans to ("" = none)
}

// serveSetup is a set-up serve workload ready for its window.
type serveSetup struct {
	dir      string
	fx       *fixtureSet
	ex       executor
	tr       *tracer // nil when untraced
	warm     []op
	measured []op
	elapsed  time.Duration // set-up time: fixtures, boot, prepare, warm-up
}

func (s *serveSetup) close() {
	s.ex.close()
	os.RemoveAll(s.dir)
}

// setupServe generates the fixtures, boots the server (or the traced
// pipeline), builds the op stream and runs the warm-up ops.
func setupServe(ctx context.Context, w *serveWorkload, name string, rc runConfig) (*serveSetup, error) {
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.workdir, name+"-*")
	if err != nil {
		return nil, err
	}
	s := &serveSetup{dir: dir}
	ok := false
	defer func() {
		if !ok {
			if s.ex != nil {
				s.ex.close()
			}
			os.RemoveAll(dir)
		}
	}()

	start := time.Now()
	graphDir := filepath.Join(dir, "graphs")
	if err := os.Mkdir(graphDir, 0o755); err != nil {
		return nil, err
	}
	graphs, err := writeFixtures(graphDir, rc.quick, w.fixtures...)
	if err != nil {
		return nil, err
	}
	if w.examples {
		ex, err := copyExamples(graphDir)
		if err != nil {
			return nil, err
		}
		for k, g := range ex {
			graphs[k] = g
		}
	}
	s.fx = &fixtureSet{graphs: graphs}
	cfg := w.config(s.fx)
	cfg.GraphDir = graphDir
	cfg.ConvertDir = filepath.Join(dir, "convert")
	if rc.traced {
		s.tr = newTracer()
		p, err := newPipeline(cfg, s.tr)
		if err != nil {
			return nil, err
		}
		s.ex = p
	} else {
		base, cancel := context.WithCancel(context.Background())
		srv, err := serve.New(base, cfg)
		if err != nil {
			cancel()
			return nil, err
		}
		s.ex = &handlerExec{srv: srv, cancel: cancel}
	}
	if w.prepare != nil {
		if err := w.prepare(ctx, s.ex, s.fx); err != nil {
			return nil, err
		}
	}
	s.elapsed = time.Since(start)

	rng := rand.New(rand.NewSource(rc.seed))
	n := opCount(w.rate, rc.window)
	ops, err := w.ops(rng, n, s.fx)
	if err != nil {
		return nil, err
	}
	s.warm, s.measured = ops[:warmupOps], ops[warmupOps:]
	for i, due := range poissonDues(rand.New(rand.NewSource(shapeSeed)), n, rc.window) {
		s.measured[i].due = due
	}
	linkPatches(s.measured)

	start = time.Now()
	for i := range s.warm {
		if code, body := s.ex.do(ctx, &s.warm[i], -1-i); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s %s: status %d: %s", s.warm[i].method, s.warm[i].path, code, body)
		}
	}
	s.elapsed += time.Since(start)
	ok = true
	return s, nil
}

// linkPatches chains each patch to the previous patch on the same graph, so
// at most one patch per graph is in flight and versions apply in order.
func linkPatches(ops []op) {
	last := map[string]int{}
	for i := range ops {
		ops[i].after = -1
		if ops[i].kind != "patch" {
			continue
		}
		if j, ok := last[ops[i].graph]; ok {
			ops[i].after = j
		}
		last[ops[i].graph] = i
	}
}

// loopResult is what the load generator observed in one window.
type loopResult struct {
	start, end time.Time
	latency    []time.Duration // per op: due time (or start, closed loop) → done
	lag        []time.Duration // open loop: how late each op was sent
	ok         []bool
}

// openLoop sends op i at start+due(i) from a single goroutine, running each
// op in its own goroutine so a slow response never delays later sends, and
// returns once all ops have completed. An op whose predecessor (after ≥ 0)
// has not finished waits for it. Latency runs from the due time to the end
// of the op, so a stall also shows in every op due behind it.
func openLoop(n int, due func(i int) time.Duration, after func(i int) int, do func(i int) bool) loopResult {
	r := loopResult{latency: make([]time.Duration, n), lag: make([]time.Duration, n), ok: make([]bool, n)}
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	r.start = time.Now().Add(2 * time.Millisecond)
	for i := 0; i < n; i++ {
		at := r.start.Add(due(i))
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		r.lag[i] = time.Since(at)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			defer close(done[i])
			if a := after(i); a >= 0 {
				<-done[a]
			}
			r.ok[i] = do(i)
			r.latency[i] = time.Since(at)
		}(i, at)
	}
	wg.Wait()
	r.end = time.Now()
	return r
}

// probe samples the process counters a window is measured by.
type probe struct {
	cpu     time.Duration
	gcPause time.Duration
}

func readProbe() probe {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// heapLiveMB forces collections and reads the live heap. The second cycle
// frees what sync.Pool victim caches still held after the first. Callers
// keep the system under test reachable across the call.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// windowOutcome is one measured window, ready to be turned into metrics.
type windowOutcome struct {
	loop       loopResult
	before     probe
	after      probe
	heapMB     float64
	goroutines int
	setup      []float64 // set-up seconds of every repeat
}

func (w windowOutcome) attempted() int { return len(w.loop.ok) }

func (w windowOutcome) failed() int {
	f := 0
	for _, ok := range w.loop.ok {
		if !ok {
			f++
		}
	}
	return f
}

// latenciesMS returns every op's latency in ms. A failed op counts as slower
// than any completed one: its latency is raised to at least the window
// length.
func (w windowOutcome) latenciesMS() []float64 {
	span := w.loop.end.Sub(w.loop.start)
	lat := make([]float64, len(w.loop.latency))
	for i, d := range w.loop.latency {
		if !w.loop.ok[i] {
			d = max(d, span)
		}
		lat[i] = float64(d) / 1e6
	}
	return lat
}

// endToEndValues computes the end-to-end metrics of a window.
func (w windowOutcome) endToEndValues() map[string]float64 {
	n := w.attempted()
	span := w.loop.end.Sub(w.loop.start)
	ok := n - w.failed()
	return map[string]float64{
		"latency_p50_ms": percentile(w.latenciesMS(), 50),
		"throughput_ops": float64(ok) / span.Seconds(),
		"cpu_ms_per_op":  float64(w.after.cpu-w.before.cpu) / 1e6 / float64(n),
		"heap_live_mb":   w.heapMB,
		"ok_ratio":       float64(ok) / float64(n),
		"setup_s":        median(w.setup),
	}
}

func (w windowOutcome) lagP99MS() float64 {
	lag := make([]float64, len(w.loop.lag))
	for i, d := range w.loop.lag {
		lag[i] = float64(d) / 1e6
	}
	if len(lag) == 0 {
		return 0
	}
	return percentile(lag, 99)
}

// runtimeValues are the runtime, load-generator and trace layer metrics of a
// traced window: the trace latencies are the replay's own.
func (w windowOutcome) runtimeValues() map[string]float64 {
	lat := w.latenciesMS()
	return map[string]float64{
		"trace.latency_p50_ms":      percentile(lat, 50),
		"trace.latency_p99_ms":      percentile(lat, 99),
		"runtime.gc_pause_ms_total": float64(w.after.gcPause-w.before.gcPause) / 1e6,
		"runtime.goroutines_end":    float64(w.goroutines),
		"loadgen.lag_p99_ms":        w.lagP99MS(),
		"loadgen.ops_attempted":     float64(w.attempted()),
	}
}

// runServe runs one serve workload: set-up, warm-up, the open-loop window,
// verification and validity gates.
func runServe(ctx context.Context, wl workload, rc runConfig, setups []float64) (*runReport, error) {
	w := wl.serve
	s, err := setupServe(ctx, w, wl.name, rc)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setups = append(setups, s.elapsed.Seconds())

	before, err := s.ex.stats(ctx)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(s.measured))
	out := windowOutcome{setup: setups, before: readProbe()}
	out.loop = openLoop(len(s.measured),
		func(i int) time.Duration { return s.measured[i].due },
		func(i int) int { return s.measured[i].after },
		func(i int) bool {
			o := &s.measured[i]
			code, body := s.ex.do(ctx, o, i)
			if o.verify {
				bodies[i] = body
			}
			return code == http.StatusOK
		})
	out.after = readProbe()
	out.goroutines = runtime.NumGoroutine()
	out.heapMB = heapLiveMB()
	runtime.KeepAlive(s.ex)

	after, err := s.ex.stats(ctx)
	if err != nil {
		return nil, err
	}
	rep := &runReport{e2e: out.endToEndValues(), attempted: out.attempted(), failed: out.failed()}
	mismatch := verifyServe(ctx, s, bodies, out.loop.ok)
	rep.failed += len(mismatch)
	rep.e2e["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	rep.problems = append(rep.problems, mismatch...)
	delta := statsDelta{before: before, after: after}
	rep.invalid = append(rep.invalid, w.gates(delta, rc.quick)...)
	rep.invalid = append(rep.invalid, loopGates(out, rc)...)
	if rc.traced {
		p := s.ex.(*pipeline)
		rep.layer = p.layerMetrics(delta, w)
		for k, v := range out.runtimeValues() {
			rep.layer[k] = v
		}
		if rc.spans != "" {
			if err := writeSpans(rc.spans, p.spans); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// loopGates are the validity rules every open-loop window must meet. A
// quick smoke run checks outputs only: its timings are not measurements.
func loopGates(out windowOutcome, rc runConfig) []string {
	if rc.quick {
		return nil
	}
	var bad []string
	if lag := out.lagP99MS(); lag > float64(maxLagP99)/1e6 {
		bad = append(bad, fmt.Sprintf("load generator ran late: lag p99 %.1f ms > %v", lag, maxLagP99))
	}
	if p := supportedPercentile(out.attempted()); p < 99 {
		bad = append(bad, fmt.Sprintf("%d measured ops support only p%v: p99 needs ten samples beyond it", out.attempted(), p))
	}
	return bad
}

// verifyServe checks the responses kept for verification; it returns one
// line per op that failed its check (ops that already failed are skipped).
func verifyServe(ctx context.Context, s *serveSetup, bodies [][]byte, ok []bool) []string {
	var bad []string
	direct := map[string][]float64{} // memo: identical requests have identical answers
	for i := range s.measured {
		o := &s.measured[i]
		if !o.verify || !ok[i] {
			continue
		}
		if err := verifyOne(ctx, s.fx, o, bodies[i], direct); err != nil {
			bad = append(bad, fmt.Sprintf("op %d (%s on %s): %v", i, o.kind, o.graph, err))
		}
	}
	return bad
}

func verifyOne(ctx context.Context, fx *fixtureSet, o *op, body []byte, direct map[string][]float64) error {
	switch o.kind {
	case "patch":
		var resp serve.PatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Version != o.wantVersion {
			return fmt.Errorf("patch version %d, want %d (one bump per applied batch)", resp.Version, o.wantVersion)
		}
		return nil
	case "sparsify":
		var resp serve.SparsifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		limit := int(math.Ceil(alpha * float64(fx.graphs[o.graph].NumEdges())))
		if resp.Graph.Edges > limit {
			return fmt.Errorf("sparsified graph has %d edges > ⌈α|E|⌉ = %d", resp.Graph.Edges, limit)
		}
		return nil
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	want, ok := direct[string(o.body)]
	if !ok {
		g := fx.graphs[o.graph]
		if o.graph == fx.spID {
			if fx.sparse == nil {
				sp, err := ugs.Lookup("gdb", ugs.WithSeed(1))
				if err != nil {
					return err
				}
				res, err := sp.Sparsify(ctx, fx.graphs[fxS10k.name], alpha)
				if err != nil {
					return err
				}
				fx.sparse = res.Graph
			}
			g = fx.sparse
		}
		if g == nil {
			return fmt.Errorf("no local copy of graph %q", o.graph)
		}
		var err error
		if want, err = directAnswer(ctx, g, o.query); err != nil {
			return err
		}
		direct[string(o.body)] = want
	}
	if !sameBits(&resp, want) {
		return fmt.Errorf("served answer differs from the direct library call")
	}
	return nil
}
