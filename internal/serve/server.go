// Package serve implements ugs-serve: a long-lived HTTP JSON service over
// the sparsifier core. It keeps graphs resident in CSR form (Store), caches
// sparsified results keyed by (graph, alpha, Spec) with singleflight
// admission (Cache), coalesces concurrent Monte-Carlo queries into shared
// WorldBatch flights at the planned lane width (Batcher), reuses sampled
// worlds across requests through a byte-bounded fill-block cache
// (WorldCache), and runs long sparsifications as cancellable async jobs
// with progress polling (Jobs).
package serve

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ugs"
	"ugs/internal/faults"
)

// Config tunes a Server; the zero value serves with the defaults below.
// Queries run a fixed sample budget unless a request carries its own
// "confidence" target, and adaptive queries degrade once the limiter is 75%
// saturated (degradePressure).
type Config struct {
	// GraphDir, when non-empty, is loaded into the store at startup
	// (every *.ugs / *.txt file).
	GraphDir string
	// SparsifyCacheSize bounds the resident sparsified results (default
	// 128). Evicted results free their graph, query answers and sampled
	// worlds; re-requesting recomputes.
	SparsifyCacheSize int
	// QueryCacheSize bounds cached query results (default 1024).
	QueryCacheSize int
	// Workers caps Monte-Carlo parallelism per flight (0 = GOMAXPROCS).
	Workers int
	// MaxSamples caps per-request Monte-Carlo sample counts (default
	// 20000).
	MaxSamples int
	// StoreBudgetBytes caps resident graph bytes in the store (0 =
	// unlimited): beyond it, least-recently-used unpinned graphs are
	// evicted and remapped from their .ugsb backing on demand.
	StoreBudgetBytes int64
	// ConvertDir holds .ugsb sidecars for converted text graphs and
	// spilled uploads (default: a temp dir removed on Close).
	ConvertDir string
	// Lanes is the default bit-parallel engine width for queries that do
	// not set "lanes" themselves: 0 = the planner (auto), 1 = the scalar
	// ablation, 64/256 = explicit WorldBatch widths.
	Lanes int
	// FanOut is the default source group size of pair queries' source
	// traversals for queries that do not set "fan_out" themselves: 0 = the
	// planner (auto), 1 = one traversal per source (the per-source
	// ablation), 8 = groups of eight sources (see mc.Options.FanOut). Pairs
	// whose source has few targets run pair searches, which it does not
	// apply to.
	FanOut int
	// WorldCacheBytes bounds the cross-request sampled-world cache
	// (default 64 MiB; negative disables it). The cache keeps a block from
	// its second request, so one-shot sample streams occupy none of it.
	WorldCacheBytes int64
	// RequestTimeout caps how long any single query/sparsify request may
	// run (0 = unbounded). A request's own timeout_ms can only tighten it.
	RequestTimeout time.Duration
	// MaxCost enables admission control: the limiter admits up to MaxCost
	// units of outstanding work, where a query costs samples × arcs (the
	// edge-stream length of its Monte-Carlo run). 0 disables limiting.
	MaxCost int64
	// MaxQueue bounds how many requests may wait for admission before the
	// limiter sheds with 429 (default 64 when MaxCost is set; negative =
	// unbounded queue).
	MaxQueue int
	// QuarantineBase and QuarantineMax tune the store's load-failure
	// backoff (defaults 1s / 60s).
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// Faults enables deterministic fault injection at the serving stack's
	// named points (nil = production no-op).
	Faults *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.SparsifyCacheSize == 0 {
		c.SparsifyCacheSize = 128
	}
	if c.QueryCacheSize == 0 {
		c.QueryCacheSize = 1024
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = 20000
	}
	if c.WorldCacheBytes == 0 {
		c.WorldCacheBytes = 64 << 20
	}
	if c.MaxCost > 0 && c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	return c
}

// Server is the ugs-serve request handler and its resident state.
type Server struct {
	cfg   Config
	base  context.Context
	store *Store
	// sparse caches sparsified results keyed by derived-graph ID (the
	// truncated SHA-256 of the full request key), so cached outputs are
	// addressable as query targets.
	sparse  *Cache[*sparseEntry]
	queries *Cache[*queryEntry]
	batcher *Batcher
	// worlds is the cross-request sampled-world cache (nil when disabled):
	// every batch-engine query hands it to the Monte-Carlo options, so
	// fills requested more than once are shared across kinds, widths and
	// requests.
	worlds  *WorldCache
	jobs    *Jobs
	limiter *Limiter
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in drain gate + response tap

	// draining flips when shutdown begins: new work is rejected with a
	// typed 503 (health checks still answer) while in-flight requests
	// finish under the drain budget.
	draining atomic.Bool

	// computes counts sparsifier runs actually executed: the cache-hit
	// path must leave it untouched (asserted by tests).
	computes atomic.Int64

	resilience resilienceCounters
}

// resilienceCounters are the server-level overload/failure counters surfaced
// in /v1/stats (the limiter, store, batcher and jobs keep their own).
type resilienceCounters struct {
	handlerPanics atomic.Int64 // panics recovered by the HTTP middleware
	timeouts      atomic.Int64 // requests that ended deadline_exceeded
	degraded      atomic.Int64 // degraded (non-converged adaptive) answers served
	staleServed   atomic.Int64 // cache hits on degraded entries (stale-while-revalidate)
	revalidations atomic.Int64 // background full-budget recomputes started
	revalFailures atomic.Int64 // revalidations that failed to reacquire the graph or recompute
	retries       atomic.Int64 // compute retries after a foreign owner's cancellation
	drainRejected atomic.Int64 // requests rejected because shutdown had begun
	writeFailures atomic.Int64 // responses whose body write failed
}

type sparseEntry struct {
	resp  SparsifyResponse
	graph *ugs.Graph
}

type queryEntry struct {
	graph     string // versioned ID of the graph the answer was computed on
	sp, rl    []float64
	connected float64
	values    []float64 // per-vertex results (pagerank, clustering)
	info      ugs.MCRunInfo
	// revalidating guards the stale-while-revalidate path: at most one
	// background full-budget recompute per degraded entry. Set permanently
	// on entries that cannot improve (the budget cap, not pressure, stopped
	// them) so hits don't respawn doomed recomputes.
	revalidating atomic.Bool
}

// New builds a Server. base bounds every background computation (flights,
// jobs): cancel it to initiate shutdown, then DrainJobs.
func New(base context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		base: base,
		store: NewStore(StoreConfig{BudgetBytes: cfg.StoreBudgetBytes, ConvertDir: cfg.ConvertDir,
			QuarantineBase: cfg.QuarantineBase, QuarantineMax: cfg.QuarantineMax, Faults: cfg.Faults}),
		sparse:  NewCache[*sparseEntry](cfg.SparsifyCacheSize),
		queries: NewCache[*queryEntry](cfg.QueryCacheSize),
		batcher: NewBatcher(base, cfg.Workers),
		jobs:    NewJobs(base),
	}
	s.batcher.faults = cfg.Faults
	s.jobs.faults = cfg.Faults
	if cfg.MaxCost > 0 {
		s.limiter = NewLimiter(cfg.MaxCost, cfg.MaxQueue)
	}
	if cfg.WorldCacheBytes > 0 {
		s.worlds = NewWorldCache(cfg.WorldCacheBytes)
		s.worlds.live = s.live
	}
	s.store.onRetire = s.retire
	s.sparse.OnEvict(func(id string, _ *sparseEntry) { s.retire(id) })
	s.sparse.live = func(e *sparseEntry) bool { return s.live(e.resp.Original) }
	s.queries.live = func(e *queryEntry) bool { return s.live(e.graph) }
	if cfg.GraphDir != "" {
		if _, err := s.store.LoadDir(cfg.GraphDir); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	s.mux.HandleFunc("POST /v1/graphs/{name}", s.handlePutGraph)
	s.mux.HandleFunc("PATCH /v1/graphs/{name}/edges", s.handlePatchGraph)
	s.mux.HandleFunc("POST /v1/sparsify", s.handleSparsify)
	s.mux.HandleFunc("GET /v1/sparsify/{id}/graph", s.handleDownloadSparse)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.handler = tapResponses(http.HandlerFunc(s.serveGated), func(v any, stack []byte) {
		s.resilience.handlerPanics.Add(1)
	}, func() { s.resilience.writeFailures.Add(1) })
	return s, nil
}

// serveGated is the drain gate in front of the mux: once shutdown begins,
// new work is turned away with a typed 503 so load balancers fail over,
// while /healthz keeps answering (it reports the draining state).
func (s *Server) serveGated(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() && r.URL.Path != "/healthz" {
		s.resilience.drainRejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining for shutdown", time.Second)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Handler returns the HTTP handler: the route mux wrapped in the drain gate
// and panic-recovery middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// StartDrain flips the server into draining mode: subsequent requests are
// rejected with 503/draining while already-admitted ones run to completion.
// Call before http.Server.Shutdown so clients and balancers see an explicit
// signal instead of hanging connections.
func (s *Server) StartDrain() { s.draining.Store(true) }

// CancelJobs force-cancels every running async job — the shutdown backstop
// behind -drain-timeout when cancelling the base context did not drain them.
func (s *Server) CancelJobs() { s.jobs.CancelAll() }

// Store exposes the graph store (startup loading, tests).
func (s *Server) Store() *Store { return s.store }

// Computes reports how many sparsifier runs actually executed — the
// counter behind the "cache hits do zero sparsifier work" guarantee.
func (s *Server) Computes() int64 { return s.computes.Load() }

// DrainJobs waits for async jobs to finish after the base context is
// cancelled, reporting whether the drain completed within the timeout.
func (s *Server) DrainJobs(timeout time.Duration) bool { return s.jobs.Wait(timeout) }

// Close releases the store (mappings, sidecar directory). Call after the
// base context is cancelled and jobs are drained.
func (s *Server) Close() error { return s.store.Close() }

// retire purges everything computed from a graph that no request can name
// any more: a store generation a bump replaced, or a sparsified result that
// left the sparsify cache. Sparsified results go first, transitively (a
// result computed from a retired graph can only be reached through its own
// ID, which goes with it), then the query answers and world blocks of every
// retired ID. Keys embed the versioned ID, so correctness never depends on
// this purge; it frees the memory. The caches' post-insert liveness checks
// catch computations that finish after it.
func (s *Server) retire(id string) {
	dead := map[string]bool{id: true}
	for ids := []string{id}; len(ids) > 0; {
		ids = s.sparse.purge(func(e *sparseEntry) bool { return dead[e.resp.Original] })
		for _, d := range ids {
			dead[d] = true
		}
	}
	s.queries.purge(func(e *queryEntry) bool { return dead[e.graph] })
	if s.worlds != nil {
		s.worlds.purge(func(graph string) bool { return dead[graph] })
	}
}

// live reports whether a request can still name a graph ID: a store ID
// ("name@gen"; graph names cannot contain '@') while it is its name's
// current generation, a sparsified result's ID while the sparsify cache
// holds it.
func (s *Server) live(id string) bool {
	if strings.Contains(id, "@") {
		return s.store.live(id)
	}
	return s.sparse.has(id)
}

// acquireGraph resolves a request's graph reference: a store name first,
// then a derived (sparsified) graph ID. The returned ID is cache-key safe
// and versioned. On success the graph is pinned against eviction until
// release (idempotent, never nil) is called. ctx bounds any backing-file
// load the acquisition triggers.
func (s *Server) acquireGraph(ctx context.Context, name string) (*ugs.Graph, string, func(), error) {
	g, id, release, err := s.store.AcquireCtx(ctx, name)
	if err == nil {
		return g, id, release, nil
	}
	if e, ok := s.sparse.Get(name); ok {
		// Sparsified results are heap graphs owned by the result cache,
		// not the store; no pin needed.
		return e.graph, e.resp.ID, func() {}, nil
	}
	return nil, "", nil, err
}

// joinContext returns a context cancelled when either a or b is done, so a
// computation can be bounded by the request deadline AND the server lifetime
// at once — shutdown still cancels in-flight work that set no deadline.
func joinContext(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// requestCtx derives a request's compute context: the tighter of the
// server-wide RequestTimeout and the request's own timeout_ms (which can only
// tighten, never extend), joined with the server base context.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		joined, jcancel := joinContext(ctx, s.base)
		return joined, func() { jcancel(); cancel() }
	}
	return joinContext(r.Context(), s.base)
}

// ---------------------------------------------------------------- sparsify

// SparsifyRequest asks for graph reduced to alpha·|E| edges with the
// embedded Spec's method and options.
type SparsifyRequest struct {
	Graph string  `json:"graph"`
	Alpha float64 `json:"alpha"`
	// TimeoutMS bounds this request in wall-clock milliseconds. The server's
	// -request-timeout can only be tightened by it, never extended. Ignored
	// for async jobs (their lifecycle is the job's, not the request's).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	ugs.Spec
}

// SparsifyResponse describes a sparsified result. ID addresses the resident
// output graph in later /v1/query and /v1/sparsify/{id}/graph requests.
type SparsifyResponse struct {
	ID              string       `json:"id"`
	Key             string       `json:"key"`
	Original        string       `json:"original"`
	Alpha           float64      `json:"alpha"`
	Graph           GraphInfo    `json:"graph"`
	RelativeEntropy float64      `json:"relative_entropy"`
	Stats           ugs.RunStats `json:"stats"`
	ElapsedMS       float64      `json:"elapsed_ms"`
	Cached          bool         `json:"cached"`
}

// requestKey builds the exact cache identity of a sparsify request and its
// addressable ID.
func requestKey(graphID string, alpha float64, spec ugs.Spec) (key, id string) {
	key = graphID + "|a=" + strconv.FormatFloat(alpha, 'g', -1, 64) + "|" + spec.Key()
	sum := sha256.Sum256([]byte(key))
	return key, "sp-" + hex.EncodeToString(sum[:16])
}

// validateSparsify makes every check a sparsify request needs no graph for,
// so a malformed request never pins, loads or evicts one: a named graph,
// alpha in (0,1), and a method and options the registry accepts.
func validateSparsify(req *SparsifyRequest) error {
	if req.Graph == "" {
		return errors.New("missing \"graph\"")
	}
	if !(req.Alpha > 0 && req.Alpha < 1) {
		return fmt.Errorf("alpha %v outside (0,1)", req.Alpha)
	}
	// Building the sparsifier validates both the option values and the
	// method name against the registry; construction is cheap (the run
	// happens later).
	_, err := req.Spec.Sparsifier()
	return err
}

// sparsify runs (or reuses) the sparsification described by req. compute
// runs under runCtx — the request context for synchronous requests, the job
// context for async ones — and progress, when non-nil, observes the run.
// Only a run takes a slot of lim: a cache hit, or a caller that joins an
// in-flight run, answers without admission. Jobs pass a nil lim, which
// admits everything.
func (s *Server) sparsify(runCtx context.Context, req *SparsifyRequest, g *ugs.Graph, gid string, progress func(ugs.RunStats), lim *Limiter) (*SparsifyResponse, error) {
	key, id := requestKey(gid, req.Alpha, req.Spec)
	entry, cached, err := doRetrying(runCtx, s.sparse, id, &s.resilience.retries, func() (*sparseEntry, error) {
		lrelease, err := lim.Acquire(runCtx, sparsifyCost(g))
		if err != nil {
			return nil, err
		}
		defer lrelease()
		var extra []ugs.Option
		if progress != nil {
			extra = append(extra, ugs.WithProgress(progress))
		}
		sp, err := req.Spec.Sparsifier(extra...)
		if err != nil {
			return nil, err
		}
		s.computes.Add(1)
		start := time.Now()
		res, err := sp.Sparsify(runCtx, g, req.Alpha)
		if err != nil {
			return nil, err
		}
		return &sparseEntry{
			graph: res.Graph,
			resp: SparsifyResponse{
				ID:              id,
				Key:             key,
				Original:        gid,
				Alpha:           req.Alpha,
				Graph:           Info(id, res.Graph),
				RelativeEntropy: ugs.RelativeEntropy(res.Graph, g),
				Stats:           res.Stats,
				ElapsedMS:       float64(time.Since(start)) / float64(time.Millisecond),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	resp := entry.resp
	resp.Cached = cached
	return &resp, nil
}

// doRetrying is c.Do with one subtlety: a compute can be owned by an async
// job whose context dies when the job is cancelled, by a request whose
// deadline expired mid-run or in the admission queue, or by a request the
// limiter shed. A caller that merely shared that flight was neither
// cancelled nor shed itself, so on such an error from a foreign owner it
// retries — the failed flight is deregistered, and the retry recomputes
// under this caller's own context and admission. The loop terminates
// because each iteration either succeeds, fails for another reason, fails
// in this caller's own compute, or observes this caller's own context
// cancelled.
func doRetrying[V any](ctx context.Context, c *Cache[V], key string, retries *atomic.Int64, compute func() (V, error)) (V, bool, error) {
	for {
		ran := false // Do runs compute on this goroutine, if at all
		val, cached, err := c.Do(ctx, key, func() (V, error) { ran = true; return compute() })
		foreign := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			(!ran && errors.Is(err, ErrOverloaded))
		if foreign && ctx.Err() == nil {
			retries.Add(1)
			continue
		}
		return val, cached, err
	}
}

func (s *Server) handleSparsify(w http.ResponseWriter, r *http.Request) {
	var req SparsifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.cfg.Faults.Check("handler.sparsify"); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
		return
	}
	if err := validateSparsify(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	g, gid, release, err := s.acquireGraph(ctx, req.Graph)
	if err != nil {
		s.writeAcquireErr(w, err)
		return
	}
	defer release()
	resp, err := s.sparsify(ctx, &req, g, gid, nil, s.limiter)
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sparsifyCost charges a synchronous sparsify run as a heavyweight query:
// the gradient-descent and expectation rounds stream the whole edge list
// many times, modelled here as a fixed large sample budget.
const sparsifyCostSamples = 1000

func sparsifyCost(g *ugs.Graph) int64 {
	return sparsifyCostSamples * graphArcs(g)
}

// queryCost is a query's admission weight: the Monte-Carlo engine streams
// every arc once per sampled world, so cost = samples × arcs. Adaptive runs
// are charged their worst-case budget (the degraded budget once the server
// is under pressure).
func queryCost(g *ugs.Graph, opts ugs.MCOptions) int64 {
	samples := opts.Samples
	if opts.Target != nil {
		samples = opts.Target.MaxSamples
	}
	if samples < 1 {
		samples = 1
	}
	return int64(samples) * graphArcs(g)
}

func graphArcs(g *ugs.Graph) int64 {
	if arcs := int64(2 * g.NumEdges()); arcs > 0 {
		return arcs
	}
	return 1
}

func (s *Server) handleDownloadSparse(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.sparse.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no resident sparsified graph %q (evicted or never computed; re-POST /v1/sparsify)", id))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Writing a resident graph fails only when the connection does, after
	// the status is sent; the response tap counts it as a write failure.
	_ = ugs.WriteGraph(w, e.graph)
}

// ------------------------------------------------------------------ query

// Confidence is an adaptive sequential-stopping request: sample until the
// normal-approximation confidence interval of every tracked estimate has
// half-width at most Eps at confidence 1−Delta (Delta 0 means the default
// 0.05). The server caps the adaptive budget at Config.MaxSamples.
type Confidence struct {
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta,omitempty"`
}

// QueryRequest evaluates a Monte-Carlo query on a resident graph (a store
// name or a sparsified-result ID). Every field but Graph is checked before
// the graph is looked up, and the pair endpoints right after, so a malformed
// request answers 400 bad_request without loading a graph or waiting for
// admission, whatever Graph names.
type QueryRequest struct {
	Graph string `json:"graph"`
	// Kind is "reliability", "distance", "connected", "pagerank" or
	// "clustering".
	Kind  string   `json:"kind"`
	Pairs [][2]int `json:"pairs,omitempty"`
	// Samples is the fixed Monte-Carlo sample count (default 500, at most
	// the server's MaxSamples). Mutually exclusive with Confidence.
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// Lanes selects the engine width: "auto" (the planner), "1" (the
	// scalar ablation), "64" or "256". Empty uses the server default. The
	// width is an execution choice only — estimates are bit-identical
	// across all of them.
	Lanes string `json:"lanes,omitempty"`
	// FanOut selects how many distinct sources one source traversal of a
	// pair query carries: "auto" (the planner), "1" (one traversal per
	// source, the per-source ablation) or "8" (groups of eight sources);
	// other values are rejected with 400. Empty uses the server default. Pairs whose source has few targets run pair searches, which
	// it does not apply to. Like Lanes it is an execution choice only —
	// per-pair estimates are bit-identical across every fan-out.
	FanOut string `json:"fan_out,omitempty"`
	// Confidence switches reliability/distance/connected queries from the
	// fixed Samples budget to sequential stopping; a request asks for it
	// here or not at all (the server has no default target). Not supported
	// for the per-vertex kinds (pagerank, clustering), which run scalar
	// worlds, nor with Lanes "1".
	Confidence *Confidence `json:"confidence,omitempty"`
	// TimeoutMS bounds this request in wall-clock milliseconds. The server's
	// -request-timeout can only be tightened by it, never extended. Adaptive
	// queries degrade to a coarser answer rather than time out.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse carries per-pair estimates (reliability, distance),
// per-vertex estimates (pagerank, clustering) or the scalar connectivity
// probability. Distance entries are null for pairs never connected in any
// sampled world. Samples is the count actually drawn — for adaptive runs
// the stopped total, with Rounds and Converged reporting the schedule.
type QueryResponse struct {
	Kind      string     `json:"kind"`
	Values    []*float64 `json:"values,omitempty"`
	Value     *float64   `json:"value,omitempty"`
	Samples   int        `json:"samples"`
	Lanes     string     `json:"lanes,omitempty"`
	FanOut    string     `json:"fan_out,omitempty"`
	Rounds    int        `json:"rounds,omitempty"`
	Converged *bool      `json:"converged,omitempty"`
	// Degraded marks an adaptive answer that stopped short of its accuracy
	// target (overload shrank the budget, the deadline cut the rounds, or
	// the budget cap hit first); AchievedEps reports the CI half-width the
	// answer actually carries so the client can decide whether it suffices.
	Degraded    bool    `json:"degraded,omitempty"`
	AchievedEps float64 `json:"achieved_eps,omitempty"`
	Cached      bool    `json:"cached"`
}

// handleQuery serves POST /v1/query in four steps, so a request that can
// never succeed costs neither a graph load nor an admission slot, and one
// whose answer exists or is being computed costs no slot either:
//
//  1. plan: planQuery makes every check that needs no graph (400);
//  2. acquire: the graph is pinned (404 unknown, 503 quarantined) and the
//     pair endpoints are checked against it (400);
//  3. execute: one cache key, coalesced across callers; a miss is admitted
//     by the limiter at the run's cost (429 when shed, 504 when the
//     deadline expires in its queue) and then runs runQuery; a hit on a
//     degraded entry also starts its revalidation;
//  4. respond: queryResponse, the same shape for every kind.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.cfg.Faults.Check("handler.query"); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	deadline, _ := ctx.Deadline()
	p, err := planQuery(&req, s.cfg, time.Now(), deadline, s.limiter.Pressure)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}

	g, gid, release, err := s.acquireGraph(ctx, req.Graph)
	if err != nil {
		s.writeAcquireErr(w, err)
		return
	}
	defer release()
	for i, pr := range p.pairs {
		if n := g.NumVertices(); pr.S < 0 || pr.S >= n || pr.T < 0 || pr.T >= n {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("pair %d endpoints (%d,%d) outside [0,%d)", i, pr.S, pr.T, n))
			return
		}
	}

	key := queryKey(&p, gid)
	entry, cached, err := doRetrying(ctx, s.queries, key, &s.resilience.retries, func() (*queryEntry, error) {
		lrelease, err := s.limiter.Acquire(ctx, queryCost(g, p.run))
		if err != nil {
			return nil, err
		}
		defer lrelease()
		return s.runQuery(ctx, &p, g, gid, p.run)
	})
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	if cached && p.key.Target != nil && !entry.info.Converged {
		s.revalidate(&p, req.Graph, gid, key, entry)
	}

	writeJSON(w, http.StatusOK, s.queryResponse(&p, entry, cached))
}

// degradePressure is the limiter saturation (inUse+queued over capacity) at
// which adaptive queries shrink their sample budget and answer degraded
// instead of queueing at full cost.
const degradePressure = 0.75

// degradedMinSamples floors the pressure-shrunk adaptive budget: below this
// the normal-approximation CI is meaningless and the answer is noise, so the
// server never degrades past it.
const degradedMinSamples = 128

// queryPlan is a query request resolved against the server configuration
// before any graph is touched. run is what this execution does: for an
// adaptive query, an engine deadline backed off the request's and, under
// limiter pressure, a shrunk budget. key is the request's cache identity:
// the full budget and no deadline. Keeping them apart means a degraded
// answer lands under the key later full-budget requests hit, so
// stale-while-revalidate can swap in the fresh result.
type queryPlan struct {
	kind     string
	pairs    []ugs.Pair // reliability and distance; endpoints unchecked
	run, key ugs.MCOptions
}

// planQuery makes every check a query needs no graph for and resolves its
// engine options. It is a pure function of the request, the configuration,
// the clock, the request deadline (zero for none) and, for adaptive
// requests only, the limiter pressure: a fixed-budget plan never calls
// pressure, which takes the limiter lock.
func planQuery(req *QueryRequest, cfg Config, now, deadline time.Time, pressure func() float64) (queryPlan, error) {
	p := queryPlan{kind: req.Kind}
	switch req.Kind {
	case "reliability", "distance":
		if len(req.Pairs) == 0 {
			return p, errors.New("pairs required for reliability/distance queries")
		}
		p.pairs = make([]ugs.Pair, len(req.Pairs))
		for i, pr := range req.Pairs {
			p.pairs[i] = ugs.Pair{S: pr[0], T: pr[1]}
		}
	case "connected", "pagerank", "clustering":
		if len(req.Pairs) != 0 {
			return p, fmt.Errorf("%s queries take no pairs", req.Kind)
		}
	default:
		return p, fmt.Errorf("unknown kind %q (want reliability, distance, connected, pagerank or clustering)", req.Kind)
	}
	opts := ugs.MCOptions{Seed: req.Seed, Workers: cfg.Workers, Lanes: cfg.Lanes, FanOut: cfg.FanOut}
	var err error
	if req.Lanes != "" {
		if opts.Lanes, err = ugs.ParseLanes(req.Lanes); err != nil {
			return p, err
		}
	}
	if req.FanOut != "" {
		if opts.FanOut, err = ugs.ParseFanOut(req.FanOut); err != nil {
			return p, err
		}
	}
	switch conf := req.Confidence; {
	case conf == nil:
		opts.Samples = cmp.Or(req.Samples, 500)
		if opts.Samples < 1 || opts.Samples > cfg.MaxSamples {
			return p, fmt.Errorf("samples %d outside [1, %d]", opts.Samples, cfg.MaxSamples)
		}
	case req.Samples != 0:
		return p, errors.New("samples and confidence are mutually exclusive (confidence decides the budget)")
	case req.Kind == "pagerank" || req.Kind == "clustering":
		// The per-vertex kinds run scalar worlds and have no per-estimate
		// CI, so a target is rejected rather than silently ignored.
		return p, fmt.Errorf("confidence is not supported for %s queries (per-vertex estimates run scalar worlds)", req.Kind)
	default:
		// The server's sample cap bounds the adaptive budget too; keep the
		// schedule legal when the cap is below the default MinSamples.
		opts.Target = ugs.WithConfidence(conf.Eps, conf.Delta)
		opts.Target.MaxSamples = cfg.MaxSamples
		if cfg.MaxSamples < 128 {
			opts.Target.MinSamples = cfg.MaxSamples
		}
	}
	if err := opts.Validate(); err != nil {
		return p, err
	}
	p.run, p.key = opts, opts
	if opts.Target != nil {
		t := *opts.Target
		if !deadline.IsZero() {
			// Back the engine deadline off the request's so encoding and
			// writing the degraded answer still fit inside it.
			t.Deadline = deadline.Add(-min(200*time.Millisecond, deadline.Sub(now)/10))
		}
		if pressure() >= degradePressure {
			t.MaxSamples = min(t.MaxSamples, max(t.MaxSamples/4, degradedMinSamples, t.MinSamples))
		}
		p.run.Target = &t
	}
	return p, nil
}

// queryKey is the cache identity of a plan on the graph version gid:
// "<kind>|<gid>|s=<seed>|n=<samples>", then for adaptive runs the stopping
// target (which changes the drawn sample count, hence the estimate), then
// for pair kinds a hash of the pair list. Reliability and distance come from
// the same merged SP+RL pass, so both are keyed "pq" and share one entry
// (and, on a miss, one coalesced flight); connectivity is keyed "cn". Lanes,
// FanOut and Workers are deliberately excluded: every width and source group
// size is bit-identical, so a cached result is valid for all of them.
func queryKey(p *queryPlan, gid string) string {
	b := make([]byte, 0, 128)
	switch p.kind {
	case "reliability", "distance":
		b = append(b, "pq"...)
	case "connected":
		b = append(b, "cn"...)
	default:
		b = append(b, p.kind...)
	}
	b = append(append(append(b, '|'), gid...), "|s="...)
	b = append(strconv.AppendInt(b, p.key.Seed, 10), "|n="...)
	b = strconv.AppendInt(b, int64(p.key.Samples), 10)
	if t := p.key.Target; t != nil {
		b = strconv.AppendFloat(append(b, "|eps="...), t.Eps, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ",delta="...), t.Delta, 'g', -1, 64)
		b = strconv.AppendInt(append(b, ",max="...), int64(t.MaxSamples), 10)
	}
	if p.pairs != nil {
		h := sha256.New()
		var buf [16]byte
		for _, pr := range p.pairs {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(pr.S))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(pr.T))
			h.Write(buf[:])
		}
		var sum [sha256.Size]byte
		b = hex.AppendEncode(append(b, '|'), h.Sum(sum[:0])[:16])
	}
	return string(b)
}

// runQuery computes a plan's answer on g under opts: the one computation
// behind a request's cache miss (opts = the run options) and a degraded
// entry's revalidation (opts = the key options).
func (s *Server) runQuery(ctx context.Context, p *queryPlan, g *ugs.Graph, gid string, opts ugs.MCOptions) (*queryEntry, error) {
	if s.worlds != nil {
		opts.FillCache, opts.FillID = s.worlds, gid
	}
	e := &queryEntry{graph: gid, info: ugs.MCRunInfo{Samples: opts.Samples, Rounds: 1, Converged: true}}
	var err error
	switch {
	case p.pairs != nil && opts.Target != nil:
		// Adaptive runs bypass the batcher: the stopping decision depends
		// on every tracked pair, so merging this request's pairs with a
		// stranger's would move its stopping point and break the
		// bit-identical-to-direct-call contract. The world cache still
		// shares the underlying fills.
		e.sp, e.rl, e.info, err = ugs.ShortestDistanceAndReliabilityRun(ctx, g, p.pairs, opts)
	case p.pairs != nil:
		e.sp, e.rl, err = s.batcher.PairQuery(ctx, gid, g, p.pairs, opts)
	case p.kind == "connected":
		e.connected, e.info, err = ugs.ConnectedProbabilityRun(ctx, g, opts)
	case p.kind == "pagerank":
		e.values, err = ugs.ExpectedPageRank(ctx, g, opts, ugs.PageRankOptions{})
	default:
		e.values, err = ugs.ExpectedClusteringCoefficients(ctx, g, opts)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// queryResponse builds the answer every query kind shares. Lanes and FanOut
// echo the requested execution shape (ablation knobs, not part of the
// result); Converged is only meaningful for adaptive runs. An adaptive
// answer that stopped short of its target is flagged degraded and counted.
// The response points into the entry, which is never written once cached.
func (s *Server) queryResponse(p *queryPlan, e *queryEntry, cached bool) QueryResponse {
	resp := QueryResponse{Kind: p.kind, Samples: e.info.Samples, Lanes: ugs.FormatLanes(p.run.Lanes),
		FanOut: ugs.FormatFanOut(p.run.FanOut), Cached: cached}
	src := e.values
	switch p.kind {
	case "reliability":
		src = e.rl
	case "distance":
		src = e.sp
	case "connected":
		resp.Value = &e.connected
	}
	if src != nil {
		// A distance is NaN for a pair never connected in any sampled
		// world; it goes out as null.
		resp.Values = make([]*float64, len(src))
		for i := range src {
			if !math.IsNaN(src[i]) {
				resp.Values[i] = &src[i]
			}
		}
	}
	if p.run.Target != nil {
		resp.Rounds = e.info.Rounds
		resp.Converged = &e.info.Converged
		if !e.info.Converged {
			resp.Degraded = true
			resp.AchievedEps = e.info.AchievedEps
			s.resilience.degraded.Add(1)
		}
	}
	return resp
}

// revalidate is the stale-while-revalidate trigger for a cache hit on a
// degraded entry, which was served as it is: at most one background
// recompute per entry runs the query at its full budget (the key options)
// under the server lifetime — no request deadline, no shrunk samples — then
// swaps the fresh result in under the same key.
func (s *Server) revalidate(p *queryPlan, name, gid, key string, stale *queryEntry) {
	s.resilience.staleServed.Add(1)
	if !stale.revalidating.CompareAndSwap(false, true) {
		return
	}
	s.resilience.revalidations.Add(1)
	go func(p queryPlan) {
		// Reacquire by name: the stale entry must not pin the graph for the
		// whole recompute, and a graph replaced since (new gid) or a name
		// that no longer resolves (an evicted sparsified result) leaves the
		// key dead anyway, so neither is a failure. Any other error leaves
		// the stale entry serving and the next hit on it tries again; it is
		// counted unless shutdown cancelled the recompute, so an entry that
		// can never refresh shows in /v1/stats.
		var fresh *queryEntry
		g, id, release, err := s.acquireGraph(s.base, name)
		if err == nil {
			defer release()
			if id == gid {
				fresh, err = s.runQuery(s.base, &p, g, gid, p.key)
			}
		}
		if fresh == nil {
			if err != nil && !errors.Is(err, ErrUnknownGraph) && s.base.Err() == nil {
				s.resilience.revalFailures.Add(1)
			}
			stale.revalidating.Store(false)
			return
		}
		if !fresh.info.Converged {
			// Still short of the target at the full budget (the MaxSamples
			// cap bites): mark it revalidating so later hits don't spin up
			// a doomed recompute each time.
			fresh.revalidating.Store(true)
		}
		s.queries.Replace(key, fresh)
	}(*p)
}

// ------------------------------------------------------------------- jobs

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req SparsifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := validateSparsify(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	g, gid, release, err := s.acquireGraph(r.Context(), req.Graph)
	if err != nil {
		s.writeAcquireErr(w, err)
		return
	}
	// The pin must outlive this handler: the job goroutine reads the
	// graph until the run finishes, so it owns the release.
	job := s.jobs.Start(func(ctx context.Context, progress func(ugs.RunStats)) (*SparsifyResponse, error) {
		defer release()
		return s.sparsify(ctx, &req, g, gid, progress, nil)
	})
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if !s.jobs.Cancel(r.PathValue("id")) {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancel requested"})
}

// ------------------------------------------------------------- graphs/misc

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Describe answers from the stored summary without forcing an evicted
	// graph resident.
	if info, ok := s.store.Describe(name); ok {
		writeJSON(w, http.StatusOK, info)
		return
	}
	if e, ok := s.sparse.Get(name); ok {
		writeJSON(w, http.StatusOK, Info(name, e.graph))
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
}

func (s *Server) handlePutGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, 256<<20)
	g, err := s.store.AddReader(name, body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, Info(name, g))
}

// StatsResponse aggregates the service counters.
type StatsResponse struct {
	// FillKernel names the world-fill implementation (ugs.FillKernel):
	// "avx512" or "portable", the reason fills run slower on some CPUs.
	FillKernel    string           `json:"fill_kernel"`
	Graphs        int              `json:"graphs"`
	Computes      int64            `json:"sparsifier_computes"`
	Store         StoreStats       `json:"store"`
	SparsifyCache CacheStats       `json:"sparsify_cache"`
	QueryCache    CacheStats       `json:"query_cache"`
	Batcher       BatcherStats     `json:"batcher"`
	WorldCache    WorldCacheStats  `json:"world_cache"`
	Jobs          map[JobState]int `json:"jobs"`
	Limiter       LimiterStats     `json:"limiter"`
	Resilience    ResilienceStats  `json:"resilience"`
}

// ResilienceStats gathers every overload/failure counter across the serving
// stack in one place, so one /v1/stats read answers "is this server
// degrading, shedding, or eating faults right now".
type ResilienceStats struct {
	Shed              int64 `json:"shed"`
	Timeouts          int64 `json:"timeouts"`
	Degraded          int64 `json:"degraded"`
	StaleServed       int64 `json:"stale_served"`
	Revalidations     int64 `json:"revalidations"`
	RevalFailures     int64 `json:"revalidation_failures"`
	Retries           int64 `json:"retries"`
	DrainRejected     int64 `json:"drain_rejected"`
	WriteFailures     int64 `json:"write_failures"`
	HandlerPanics     int64 `json:"handler_panics"`
	BatcherPanics     int64 `json:"batcher_panics"`
	JobPanics         int64 `json:"job_panics"`
	AbandonedFlights  int64 `json:"abandoned_flights"`
	Quarantined       int   `json:"quarantined"`
	QuarantineRejects int64 `json:"quarantine_rejects"`
	LoadFailures      int64 `json:"load_failures"`
	FaultsInjected    int64 `json:"faults_injected"`
}

func (s *Server) resilienceStats() ResilienceStats {
	store := s.store.Stats()
	batcher := s.batcher.Stats()
	return ResilienceStats{
		Shed:              s.limiter.Stats().Shed,
		Timeouts:          s.resilience.timeouts.Load(),
		Degraded:          s.resilience.degraded.Load(),
		StaleServed:       s.resilience.staleServed.Load(),
		Revalidations:     s.resilience.revalidations.Load(),
		RevalFailures:     s.resilience.revalFailures.Load(),
		Retries:           s.resilience.retries.Load(),
		DrainRejected:     s.resilience.drainRejected.Load(),
		WriteFailures:     s.resilience.writeFailures.Load(),
		HandlerPanics:     s.resilience.handlerPanics.Load(),
		BatcherPanics:     batcher.Panics,
		JobPanics:         s.jobs.Panics(),
		AbandonedFlights:  batcher.AbandonedFlights,
		Quarantined:       store.Quarantined,
		QuarantineRejects: store.QuarantineRejects,
		LoadFailures:      store.LoadFailures,
		FaultsInjected:    s.cfg.Faults.Total(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := make(map[JobState]int)
	for _, st := range s.jobs.List() {
		jobs[st.State]++
	}
	var worlds WorldCacheStats
	if s.worlds != nil {
		worlds = s.worlds.Stats()
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		FillKernel:    ugs.FillKernel(),
		Graphs:        s.store.Len(),
		Computes:      s.computes.Load(),
		Store:         s.store.Stats(),
		SparsifyCache: s.sparse.Stats(),
		QueryCache:    s.queries.Stats(),
		Batcher:       s.batcher.Stats(),
		WorldCache:    worlds,
		Jobs:          jobs,
		Limiter:       s.limiter.Stats(),
		Resilience:    s.resilienceStats(),
	})
}

// ---------------------------------------------------------------- helpers

// writeJSON encodes v before sending the status, so a value that cannot be
// encoded (a NaN, say) becomes a 500 envelope rather than an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write is counted by the response tap.
	_, _ = w.Write(append(blob, '\n'))
}

// writeErr emits the typed envelope with the code implied by the status —
// the shorthand for validation-shaped failures.
func writeErr(w http.ResponseWriter, status int, msg string) {
	var code ErrorCode
	switch status {
	case http.StatusBadRequest:
		code = CodeBadRequest
	case http.StatusNotFound:
		code = CodeNotFound
	case http.StatusGatewayTimeout:
		code = CodeDeadline
	default:
		code = CodeInternal
	}
	writeError(w, status, code, msg, 0)
}

// writeAcquireErr maps graph-acquisition failures onto their typed codes: an
// unknown name and a quarantined one are deliberately the same envelope
// shape, differing only in code and Retry-After.
func (s *Server) writeAcquireErr(w http.ResponseWriter, err error) {
	var qe *QuarantineError
	switch {
	case errors.As(err, &qe):
		writeError(w, http.StatusServiceUnavailable, CodeQuarantined, err.Error(), time.Until(qe.Until))
	case errors.Is(err, ErrUnknownGraph):
		writeError(w, http.StatusNotFound, CodeUnknownGraph, err.Error(), 0)
	case errors.Is(err, context.DeadlineExceeded):
		s.resilience.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, CodeDeadline, err.Error(), 0)
	case errors.Is(err, context.Canceled):
		// Shutdown cancelled the request before its graph was pinned.
		s.writeCtxErr(w, err)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	}
}

// writeComputeErr reports a computation that failed: shed by the limiter
// (retryable 429), dead on its own context, in the admission queue or while
// running, or failed outright.
func (s *Server) writeComputeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			"server overloaded: admission queue full", s.limiter.RetryAfter())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.writeCtxErr(w, err)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	}
}

// writeCtxErr reports a request whose context died: its deadline expired
// (504), or it was cancelled — which, for a response anyone will still read,
// means server shutdown (503 draining; a disconnected client reads nothing).
func (s *Server) writeCtxErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.resilience.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, CodeDeadline, "request deadline exceeded", 0)
		return
	}
	writeError(w, http.StatusServiceUnavailable, CodeDraining, "request cancelled: "+err.Error(), time.Second)
}

// decodeJSON parses a bounded JSON body into dst, rejecting unknown fields.
func decodeJSON[T any](w http.ResponseWriter, r *http.Request, dst *T) bool {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}
