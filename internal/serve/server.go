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
	"sync/atomic"
	"time"

	"ugs"
	"ugs/internal/faults"
)

// Config tunes a Server.
type Config struct {
	// GraphDir, when non-empty, is loaded into the store at startup
	// (every *.ugs / *.txt file).
	GraphDir string
	// SparsifyCacheSize bounds the resident sparsified results (default
	// 128). Evicted results free their graph; re-requesting recomputes.
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
	// FanOut is the default source group size for pair queries that do
	// not set "fan_out" themselves: 0 = the planner (auto), 1 = one
	// traversal per source (the per-source ablation), 2..64 = explicit
	// multi-source group sizes.
	FanOut int
	// Confidence, when non-nil, makes queries adaptive by default:
	// requests without an explicit "confidence" field run sequential
	// stopping to this target instead of a fixed sample budget.
	Confidence *Confidence
	// WorldCacheBytes bounds the cross-request sampled-world cache
	// (default 64 MiB; negative disables it).
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
	// DegradePressure is the limiter saturation (inUse+queued over
	// capacity) beyond which adaptive queries shrink their sample budget
	// and answer degraded instead of queueing at full cost (default 0.75).
	DegradePressure float64
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
	if c.DegradePressure == 0 {
		c.DegradePressure = 0.75
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
	// fills are shared across kinds, widths and requests.
	worlds  *WorldCache
	jobs    *Jobs
	limiter *Limiter
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in drain gate + panic recovery

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
	retries       atomic.Int64 // compute retries after a foreign owner's cancellation
	drainRejected atomic.Int64 // requests rejected because shutdown had begun
}

type sparseEntry struct {
	resp  SparsifyResponse
	graph *ugs.Graph
}

type queryEntry struct {
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
	}
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
	s.handler = recoverPanics(http.HandlerFunc(s.serveGated), func(v any, stack []byte) {
		s.resilience.handlerPanics.Add(1)
	})
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

// validateSparsify resolves and validates a sparsify request, pinning the
// input graph. On success the caller owns the release.
func (s *Server) validateSparsify(ctx context.Context, req *SparsifyRequest) (*ugs.Graph, string, func(), error) {
	if req.Graph == "" {
		return nil, "", nil, fmt.Errorf("missing \"graph\"")
	}
	g, gid, release, err := s.acquireGraph(ctx, req.Graph)
	if err != nil {
		return nil, "", nil, err
	}
	if !(req.Alpha > 0 && req.Alpha < 1) {
		release()
		return nil, "", nil, fmt.Errorf("alpha %v outside (0,1)", req.Alpha)
	}
	// Building the sparsifier validates both the option values and the
	// method name against the registry; construction is cheap (the run
	// happens later).
	if _, err := req.Spec.Sparsifier(); err != nil {
		release()
		return nil, "", nil, err
	}
	return g, gid, release, nil
}

// sparsify runs (or reuses) the sparsification described by req. compute
// runs under runCtx — the server base context for synchronous requests, the
// job context for async ones — and progress, when non-nil, observes the run.
func (s *Server) sparsify(runCtx context.Context, req *SparsifyRequest, g *ugs.Graph, gid string, progress func(ugs.RunStats)) (*SparsifyResponse, error) {
	key, id := requestKey(gid, req.Alpha, req.Spec)
	entry, cached, err := s.sparsifyDo(runCtx, id, key, req, g, gid, progress)
	if err != nil {
		return nil, err
	}
	resp := entry.resp
	resp.Cached = cached
	return &resp, nil
}

// sparsifyDo wraps the cache admission with one subtlety: a compute can be
// owned by an async job whose context dies when the job is cancelled, or by
// a request whose deadline expired mid-run. A caller that merely shared that
// flight was not itself cancelled, so on a cancellation error from a foreign
// owner it retries — the failed flight is deregistered, and the retry
// recomputes under this caller's own context. The loop terminates because
// each iteration either succeeds, fails for a non-cancellation reason, or
// observes this caller's own context cancelled.
func (s *Server) sparsifyDo(runCtx context.Context, id, key string, req *SparsifyRequest, g *ugs.Graph, gid string, progress func(ugs.RunStats)) (*sparseEntry, bool, error) {
	for {
		entry, cached, err := s.sparsifyOnce(runCtx, id, key, req, g, gid, progress)
		if foreignCancel(err) && runCtx.Err() == nil {
			s.resilience.retries.Add(1)
			continue
		}
		return entry, cached, err
	}
}

// foreignCancel reports whether err is a context cancellation — which, when
// the caller's own context is still alive, must have come from another
// flight owner's deadline or disconnect.
func foreignCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// queryDo mirrors sparsifyDo for the query cache: a coalesced waiter whose
// own context is still alive retries a flight killed by its owner's deadline
// or disconnect, becoming the new owner under its own context.
func (s *Server) queryDo(ctx context.Context, key string, compute func() (*queryEntry, error)) (*queryEntry, bool, error) {
	for {
		entry, cached, err := s.queries.Do(ctx, key, compute)
		if foreignCancel(err) && ctx.Err() == nil {
			s.resilience.retries.Add(1)
			continue
		}
		return entry, cached, err
	}
}

func (s *Server) sparsifyOnce(runCtx context.Context, id, key string, req *SparsifyRequest, g *ugs.Graph, gid string, progress func(ugs.RunStats)) (*sparseEntry, bool, error) {
	return s.sparse.Do(runCtx, id, func() (*sparseEntry, error) {
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
		info := Info(id, res.Graph)
		return &sparseEntry{
			graph: res.Graph,
			resp: SparsifyResponse{
				ID:              id,
				Key:             key,
				Original:        gid,
				Alpha:           req.Alpha,
				Graph:           info,
				RelativeEntropy: ugs.RelativeEntropy(res.Graph, g),
				Stats:           res.Stats,
				ElapsedMS:       float64(time.Since(start)) / float64(time.Millisecond),
			},
		}, nil
	})
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
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	g, gid, release, err := s.validateSparsify(ctx, &req)
	if err != nil {
		s.writeRequestErr(w, err)
		return
	}
	defer release()
	lrelease, err := s.limiter.Acquire(ctx, sparsifyCost(g))
	if err != nil {
		s.writeAdmitErr(w, err)
		return
	}
	defer lrelease()
	resp, err := s.sparsify(ctx, &req, g, gid, nil)
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
	if err := ugs.WriteGraph(w, e.graph); err != nil {
		// Headers are gone; nothing to do beyond logging via the error path.
		return
	}
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
// name or a sparsified-result ID).
type QueryRequest struct {
	Graph string `json:"graph"`
	// Kind is "reliability", "distance", "connected", "pagerank" or
	// "clustering".
	Kind  string   `json:"kind"`
	Pairs [][2]int `json:"pairs,omitempty"`
	// Samples is the fixed Monte-Carlo sample count (default 500).
	// Mutually exclusive with Confidence.
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// Lanes selects the engine width: "auto" (the planner), "1" (the
	// scalar ablation), "64" or "256". Empty uses the server default. The
	// width is an execution choice only — estimates are bit-identical
	// across all of them.
	Lanes string `json:"lanes,omitempty"`
	// FanOut selects how many distinct sources one pair-query traversal
	// carries: "auto" (the planner), "1" (one traversal per source, the
	// per-source ablation) or "2".."64". Empty uses the server default.
	// Like Lanes it is an execution choice only — per-pair estimates are
	// bit-identical across every fan-out.
	FanOut string `json:"fan_out,omitempty"`
	// Confidence switches reliability/distance/connected queries from the
	// fixed Samples budget to sequential stopping. Not supported for the
	// per-vertex kinds (pagerank, clustering), which run scalar worlds.
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
	g, gid, release, err := s.acquireGraph(ctx, req.Graph)
	if err != nil {
		s.writeAcquireErr(w, err)
		return
	}
	defer release()

	lanes := s.cfg.Lanes
	if req.Lanes != "" {
		if lanes, err = ugs.ParseLanes(req.Lanes); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	fanOut := s.cfg.FanOut
	if req.FanOut != "" {
		if fanOut, err = ugs.ParseFanOut(req.FanOut); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	conf := req.Confidence
	if conf == nil {
		conf = s.cfg.Confidence
	}
	opts := ugs.MCOptions{Seed: req.Seed, Workers: s.cfg.Workers, Lanes: lanes, FanOut: fanOut}
	if conf != nil {
		if req.Samples != 0 {
			writeErr(w, http.StatusBadRequest, "samples and confidence are mutually exclusive (confidence decides the budget)")
			return
		}
		target := ugs.WithConfidence(conf.Eps, conf.Delta)
		// The server's sample cap bounds the adaptive budget too; keep
		// the schedule legal when the cap is below the default MinSamples.
		target.MaxSamples = s.cfg.MaxSamples
		if target.MinSamples == 0 && s.cfg.MaxSamples < 128 {
			target.MinSamples = s.cfg.MaxSamples
		}
		opts.Target = target
	} else {
		if req.Samples == 0 {
			req.Samples = 500
		}
		if req.Samples < 1 || req.Samples > s.cfg.MaxSamples {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("samples %d outside [1, %d]", req.Samples, s.cfg.MaxSamples))
			return
		}
		opts.Samples = req.Samples
	}
	if s.worlds != nil {
		opts.FillCache = s.worlds
		opts.FillID = gid
	}
	if err := opts.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}

	// keyOpts is the request's cache identity (the full adaptive budget, no
	// deadline); runOpts is what this execution actually does — possibly a
	// deadline-bounded, pressure-shrunk budget. Keeping them apart means a
	// degraded answer lands under the key later full-budget requests hit, so
	// stale-while-revalidate can swap in the fresh result.
	keyOpts, runOpts := opts, opts
	if opts.Target != nil {
		t := *opts.Target
		if dl, ok := ctx.Deadline(); ok {
			// Back the engine deadline off the request's so encoding and
			// writing the degraded answer still fit inside it.
			t.Deadline = dl.Add(-min(200*time.Millisecond, time.Until(dl)/10))
		}
		if s.limiter != nil && s.limiter.Pressure() >= s.cfg.DegradePressure {
			shrunk := t.MaxSamples / 4
			if shrunk < degradedMinSamples {
				shrunk = degradedMinSamples
			}
			if t.MinSamples > 0 && shrunk < t.MinSamples {
				shrunk = t.MinSamples
			}
			if shrunk < t.MaxSamples {
				t.MaxSamples = shrunk
			}
		}
		runOpts.Target = &t
	}
	lrelease, err := s.limiter.Acquire(ctx, queryCost(g, runOpts))
	if err != nil {
		s.writeAdmitErr(w, err)
		return
	}
	defer lrelease()

	switch req.Kind {
	case "reliability", "distance":
		s.handlePairQuery(ctx, w, &req, g, gid, runOpts, keyOpts)
	case "connected":
		s.handleConnectedQuery(ctx, w, &req, g, gid, runOpts, keyOpts)
	case "pagerank", "clustering":
		s.handleVectorQuery(ctx, w, &req, g, gid, runOpts)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown kind %q (want reliability, distance, connected, pagerank or clustering)", req.Kind))
	}
}

// degradedMinSamples floors the pressure-shrunk adaptive budget: below this
// the normal-approximation CI is meaningless and the answer is noise, so the
// server never degrades past it.
const degradedMinSamples = 128

func (s *Server) handlePairQuery(ctx context.Context, w http.ResponseWriter, req *QueryRequest, g *ugs.Graph, gid string, runOpts, keyOpts ugs.MCOptions) {
	if len(req.Pairs) == 0 {
		writeErr(w, http.StatusBadRequest, "pairs required for reliability/distance queries")
		return
	}
	pairs := make([]ugs.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[0] >= g.NumVertices() || p[1] < 0 || p[1] >= g.NumVertices() {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("pair %d endpoints (%d,%d) outside [0,%d)", i, p[0], p[1], g.NumVertices()))
			return
		}
		pairs[i] = ugs.Pair{S: p[0], T: p[1]}
	}
	// Reliability and distance come from the same merged SP+RL pass, so
	// they share one kind-agnostic cache entry (and, on a miss, one
	// coalesced flight).
	key := pairQueryKey(gid, keyOpts, pairs)
	compute := func(ctx context.Context, g *ugs.Graph, opts ugs.MCOptions) (*queryEntry, error) {
		if opts.Target != nil {
			// Adaptive runs bypass the batcher: the stopping decision
			// depends on every tracked pair, so merging this request's
			// pairs with a stranger's would move its stopping point and
			// break the bit-identical-to-direct-call contract. The world
			// cache still shares the underlying fills.
			sp, rl, info, err := ugs.ShortestDistanceAndReliabilityRun(ctx, g, pairs, opts)
			if err != nil {
				return nil, err
			}
			return &queryEntry{sp: sp, rl: rl, info: info}, nil
		}
		sp, rl, err := s.batcher.PairQuery(ctx, gid, g, pairs, opts)
		if err != nil {
			return nil, err
		}
		return &queryEntry{sp: sp, rl: rl, info: ugs.MCRunInfo{Samples: opts.Samples, Rounds: 1, Converged: true}}, nil
	}
	entry, cached, err := s.queryDo(ctx, key, func() (*queryEntry, error) { return compute(ctx, g, runOpts) })
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	s.maybeRevalidate(key, req.Graph, gid, keyOpts, entry, cached, compute)
	src := entry.rl
	if req.Kind == "distance" {
		src = entry.sp
	}
	values := make([]*float64, len(src))
	for i, v := range src {
		if !math.IsNaN(v) {
			v := v
			values[i] = &v
		}
	}
	writeJSON(w, http.StatusOK, s.queryResponse(req.Kind, runOpts, entry, cached, QueryResponse{Values: values}))
}

func (s *Server) handleConnectedQuery(ctx context.Context, w http.ResponseWriter, req *QueryRequest, g *ugs.Graph, gid string, runOpts, keyOpts ugs.MCOptions) {
	if len(req.Pairs) != 0 {
		writeErr(w, http.StatusBadRequest, "connected queries take no pairs")
		return
	}
	key := "cn|" + scalarQueryKey(gid, keyOpts)
	compute := func(ctx context.Context, g *ugs.Graph, opts ugs.MCOptions) (*queryEntry, error) {
		p, info, err := ugs.ConnectedProbabilityRun(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		return &queryEntry{connected: p, info: info}, nil
	}
	entry, cached, err := s.queryDo(ctx, key, func() (*queryEntry, error) { return compute(ctx, g, runOpts) })
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	s.maybeRevalidate(key, req.Graph, gid, keyOpts, entry, cached, compute)
	v := entry.connected
	writeJSON(w, http.StatusOK, s.queryResponse(req.Kind, runOpts, entry, cached, QueryResponse{Value: &v}))
}

// maybeRevalidate is the stale-while-revalidate trigger: a cache hit on a
// degraded entry was served immediately (stale), and at most one background
// recompute per entry runs the query at its full budget under the server
// lifetime — no request deadline, no shrunk samples — then swaps the fresh
// result in under the same key.
func (s *Server) maybeRevalidate(key, name, gid string, keyOpts ugs.MCOptions, entry *queryEntry, cached bool, compute func(context.Context, *ugs.Graph, ugs.MCOptions) (*queryEntry, error)) {
	if !cached || keyOpts.Target == nil || entry.info.Converged {
		return
	}
	s.resilience.staleServed.Add(1)
	if !entry.revalidating.CompareAndSwap(false, true) {
		return
	}
	s.resilience.revalidations.Add(1)
	go func() {
		// Reacquire by name: the stale entry must not pin the graph for the
		// whole recompute, and a graph replaced since (new gid) invalidates
		// the key anyway.
		g, id, release, err := s.acquireGraph(s.base, name)
		if err != nil {
			entry.revalidating.Store(false)
			return
		}
		defer release()
		if id != gid {
			entry.revalidating.Store(false)
			return
		}
		fresh, err := compute(s.base, g, keyOpts)
		if err != nil || fresh == nil {
			entry.revalidating.Store(false)
			return
		}
		if !fresh.info.Converged {
			// Still short of the target at the full budget (the MaxSamples
			// cap bites): mark it revalidating so later hits don't spin up
			// a doomed recompute each time.
			fresh.revalidating.Store(true)
		}
		s.queries.Replace(key, fresh)
	}()
}

// handleVectorQuery serves the per-vertex kinds (pagerank, clustering).
// Vector queries run scalar worlds — the planner never routes them to the
// batch engine — and have no per-estimate CI, so confidence targets are
// rejected rather than silently ignored.
func (s *Server) handleVectorQuery(ctx context.Context, w http.ResponseWriter, req *QueryRequest, g *ugs.Graph, gid string, opts ugs.MCOptions) {
	if len(req.Pairs) != 0 {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("%s queries take no pairs", req.Kind))
		return
	}
	if opts.Target != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("confidence is not supported for %s queries (per-vertex estimates run scalar worlds)", req.Kind))
		return
	}
	key := req.Kind + "|" + scalarQueryKey(gid, opts)
	entry, cached, err := s.queryDo(ctx, key, func() (*queryEntry, error) {
		var (
			values []float64
			err    error
		)
		if req.Kind == "pagerank" {
			values, err = ugs.ExpectedPageRank(ctx, g, opts, ugs.PageRankOptions{})
		} else {
			values, err = ugs.ExpectedClusteringCoefficients(ctx, g, opts)
		}
		if err != nil {
			return nil, err
		}
		return &queryEntry{values: values, info: ugs.MCRunInfo{Samples: opts.Samples, Rounds: 1, Converged: true}}, nil
	})
	if err != nil {
		s.writeComputeErr(w, err)
		return
	}
	values := make([]*float64, len(entry.values))
	for i, v := range entry.values {
		v := v
		values[i] = &v
	}
	writeJSON(w, http.StatusOK, s.queryResponse(req.Kind, opts, entry, cached, QueryResponse{Values: values}))
}

// queryResponse fills the run-report fields shared by every query kind.
// Lanes and FanOut echo the requested execution shape (ablation knobs, not
// part of the result); Converged is only meaningful for adaptive runs. An
// adaptive answer that stopped short of its target is flagged degraded and
// counted.
func (s *Server) queryResponse(kind string, opts ugs.MCOptions, entry *queryEntry, cached bool, resp QueryResponse) QueryResponse {
	resp.Kind = kind
	resp.Samples = entry.info.Samples
	resp.Lanes = ugs.FormatLanes(opts.Lanes)
	resp.FanOut = ugs.FormatFanOut(opts.FanOut)
	resp.Cached = cached
	if opts.Target != nil {
		resp.Rounds = entry.info.Rounds
		converged := entry.info.Converged
		resp.Converged = &converged
		if !converged {
			resp.Degraded = true
			resp.AchievedEps = entry.info.AchievedEps
			s.resilience.degraded.Add(1)
		}
	}
	return resp
}

// scalarQueryKey is the cache identity of a pair-free query: the versioned
// graph, the sample stream, and — for adaptive runs — the stopping target
// (which changes the drawn sample count, hence the estimate). Lanes, FanOut
// and Workers are deliberately excluded: every width and source group size
// is bit-identical, so a cached result is valid for all of them.
func scalarQueryKey(gid string, opts ugs.MCOptions) string {
	key := fmt.Sprintf("%s|s=%d|n=%d", gid, opts.Seed, opts.Samples)
	if t := opts.Target; t != nil {
		key += fmt.Sprintf("|eps=%g,delta=%g,max=%d", t.Eps, t.Delta, t.MaxSamples)
	}
	return key
}

// pairQueryKey hashes the pair list so repeat queries with identical pair
// sets hit the cache regardless of length. Like scalarQueryKey it includes
// the adaptive target but neither the lane width nor the source fan-out.
func pairQueryKey(gid string, opts ugs.MCOptions, pairs []ugs.Pair) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(p.S))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(p.T))
		h.Write(buf[:])
	}
	return fmt.Sprintf("pq|%s|%x", scalarQueryKey(gid, opts), h.Sum(nil)[:16])
}

// ------------------------------------------------------------------- jobs

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req SparsifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	g, gid, release, err := s.validateSparsify(r.Context(), &req)
	if err != nil {
		s.writeRequestErr(w, err)
		return
	}
	// The pin must outlive this handler: the job goroutine reads the
	// graph until the run finishes, so it owns the release.
	job := s.jobs.Start(func(ctx context.Context, progress func(ugs.RunStats)) (*SparsifyResponse, error) {
		defer release()
		return s.sparsify(ctx, &req, g, gid, progress)
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
	Retries           int64 `json:"retries"`
	DrainRejected     int64 `json:"drain_rejected"`
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
		Retries:           s.resilience.retries.Load(),
		DrainRejected:     s.resilience.drainRejected.Load(),
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
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
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	}
}

// writeRequestErr maps sparsify-validation failures: store errors keep their
// typed codes, anything else is the caller's fault.
func (s *Server) writeRequestErr(w http.ResponseWriter, err error) {
	var qe *QuarantineError
	if errors.As(err, &qe) || errors.Is(err, ErrUnknownGraph) || errors.Is(err, context.DeadlineExceeded) {
		s.writeAcquireErr(w, err)
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
}

// writeAdmitErr reports a request that failed admission: shed by the limiter
// (retryable 429) or dead on its own context before capacity freed.
func (s *Server) writeAdmitErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			"server overloaded: admission queue full", s.limiter.RetryAfter())
		return
	}
	s.writeCtxErr(w, err)
}

// writeComputeErr reports a computation that failed after admission.
func (s *Server) writeComputeErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.writeCtxErr(w, err)
		return
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
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
