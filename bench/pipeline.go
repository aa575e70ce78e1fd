package main

import (
	"bytes"
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
	"sync"
	"time"

	"ugs"
	"ugs/internal/queries"
	"ugs/internal/serve"
)

// pipeline is the traced stand-in for serve.Server: the same exported parts
// (Store, Limiter, Cache, Batcher, WorldCache) called in the order the
// server's handlers call them, with a span around each call. It exists
// because the service has no internal stage clock yet; spans here come from
// the benchmark's side of each layer boundary. Only the paths the mixes use
// are mirrored: fixed-budget queries (no confidence targets, deadlines or
// degradation), synchronous sparsify, and patches.
type pipeline struct {
	cfg     serve.Config
	base    context.Context
	cancel  context.CancelFunc
	store   *serve.Store
	sparse  *serve.Cache[*sparseResult]
	queries *serve.Cache[*queryResult]
	batcher *serve.Batcher
	worlds  *serve.WorldCache
	limiter *serve.Limiter
	tr      *tracer
	// spans holds the run's spans once layerMetrics has attributed them.
	spans []span

	mu     sync.Mutex
	probed map[*ugs.Graph]bool // graphs whose planner probe already ran
}

type sparseResult struct {
	resp  serve.SparsifyResponse
	graph *ugs.Graph
}

type queryResult struct {
	sp, rl    []float64
	connected float64
	values    []float64
	samples   int
}

// sparsifyCostSamples is the sample count serve's admission control prices
// a synchronous sparsify run at.
const sparsifyCostSamples = 1000

// newPipeline builds the traced pipeline from cfg. Fields the server would
// default when zero must be set: the pipeline sizes its parts from cfg alone,
// so a default it filled in could drift from the server's.
func newPipeline(cfg serve.Config, tr *tracer) (*pipeline, error) {
	if cfg.SparsifyCacheSize <= 0 || cfg.QueryCacheSize <= 0 || cfg.WorldCacheBytes <= 0 || cfg.MaxSamples <= 0 ||
		(cfg.MaxCost > 0 && cfg.MaxQueue == 0) {
		return nil, fmt.Errorf("traced pipeline: cache sizes, MaxSamples and (with MaxCost) MaxQueue must be set explicitly")
	}
	base, cancel := context.WithCancel(context.Background())
	p := &pipeline{
		cfg:     cfg,
		base:    base,
		cancel:  cancel,
		store:   serve.NewStore(serve.StoreConfig{BudgetBytes: cfg.StoreBudgetBytes, ConvertDir: cfg.ConvertDir}),
		sparse:  serve.NewCache[*sparseResult](cfg.SparsifyCacheSize),
		queries: serve.NewCache[*queryResult](cfg.QueryCacheSize),
		batcher: serve.NewBatcher(base, cfg.Workers),
		worlds:  serve.NewWorldCache(cfg.WorldCacheBytes),
		tr:      tr,
		probed:  map[*ugs.Graph]bool{},
	}
	if cfg.MaxCost > 0 {
		p.limiter = serve.NewLimiter(cfg.MaxCost, cfg.MaxQueue)
	}
	if _, err := p.store.LoadDir(cfg.GraphDir); err != nil {
		cancel()
		return nil, err
	}
	return p, nil
}

func (p *pipeline) close() {
	p.cancel()
	p.store.Close()
}

func (p *pipeline) stats(context.Context) (serve.StatsResponse, error) {
	return serve.StatsResponse{
		Store:         p.store.Stats(),
		SparsifyCache: p.sparse.Stats(),
		QueryCache:    p.queries.Stats(),
		Batcher:       p.batcher.Stats(),
		WorldCache:    p.worlds.Stats(),
		Limiter:       p.limiter.Stats(),
	}, nil
}

func (p *pipeline) do(ctx context.Context, o *op, req int) (int, []byte) {
	root := p.tr.begin(req, 0, "serve.handler")
	code, body := http.StatusOK, []byte(nil)
	switch o.kind {
	case "patch":
		code, body = p.patch(ctx, o, req, root)
	case "sparsify":
		code, body = p.sparsify(ctx, o, req, root)
	default:
		code, body = p.query(ctx, o, req, root)
	}
	p.tr.end(root, func(s *span) { s.Failed = code != http.StatusOK })
	return code, body
}

// step runs f inside a span named name under parent.
func (p *pipeline) step(req, parent int, name string, f func() error) error {
	id := p.tr.begin(req, parent, name)
	err := f()
	p.tr.end(id, nil)
	return err
}

func (p *pipeline) decode(req, root int, body []byte, dst any) error {
	return p.step(req, root, "serve.handler.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(dst)
	})
}

func (p *pipeline) encode(req, root int, v any) []byte {
	var out []byte
	p.step(req, root, "serve.handler.encode", func() error {
		out, _ = json.MarshalIndent(v, "", "  ") // response structs always encode
		out = append(out, '\n')
		return nil
	})
	return out
}

// acquire mirrors the server's graph resolution: a store name first, then a
// sparsified-result id.
func (p *pipeline) acquire(ctx context.Context, req, root int, name string) (*ugs.Graph, string, func(), error) {
	var (
		g       *ugs.Graph
		id      string
		release func()
	)
	err := p.step(req, root, "serve.store.acquire", func() error {
		var err error
		g, id, release, err = p.store.AcquireCtx(ctx, name)
		if err != nil {
			if e, ok := p.sparse.Get(name); ok {
				g, id, release, err = e.graph, e.resp.ID, func() {}, nil
			}
		}
		return err
	})
	return g, id, release, err
}

func (p *pipeline) admit(ctx context.Context, req, root int, cost int64) (func(), error) {
	var release func()
	err := p.step(req, root, "serve.limiter.wait", func() error {
		var err error
		release, err = p.limiter.Acquire(ctx, cost)
		return err
	})
	return release, err
}

func (p *pipeline) query(ctx context.Context, o *op, req, root int) (int, []byte) {
	var q serve.QueryRequest
	if err := p.decode(req, root, o.body, &q); err != nil {
		return http.StatusBadRequest, nil
	}
	g, gid, release, err := p.acquire(ctx, req, root, q.Graph)
	if err != nil {
		return http.StatusNotFound, nil
	}
	defer release()
	opts := ugs.MCOptions{Seed: q.Seed, Workers: p.cfg.Workers, Lanes: p.cfg.Lanes, FanOut: p.cfg.FanOut,
		Samples: q.Samples, FillCache: fillRecorder{p}, FillID: gid}
	if q.Lanes != "" {
		if opts.Lanes, err = ugs.ParseLanes(q.Lanes); err != nil {
			return http.StatusBadRequest, nil
		}
	}
	if q.FanOut != "" {
		if opts.FanOut, err = ugs.ParseFanOut(q.FanOut); err != nil {
			return http.StatusBadRequest, nil
		}
	}
	// Every mix states its sample count, so the server's default budget for
	// a request without one is never needed.
	if q.Confidence != nil || opts.Samples < 1 || opts.Samples > p.cfg.MaxSamples || opts.Validate() != nil {
		return http.StatusBadRequest, nil
	}
	arcs := int64(max(2*g.NumEdges(), 1))
	lrelease, err := p.admit(ctx, req, root, int64(opts.Samples)*arcs)
	if err != nil {
		return http.StatusTooManyRequests, nil
	}
	defer lrelease()

	var (
		key     string
		compute func(parent int) (*queryResult, error)
	)
	work := float64(opts.Samples) * float64(arcs)
	switch q.Kind {
	case "reliability", "distance":
		pairs := make([]ugs.Pair, len(q.Pairs))
		sources := map[int]bool{}
		for i, pr := range q.Pairs {
			if pr[0] < 0 || pr[0] >= g.NumVertices() || pr[1] < 0 || pr[1] >= g.NumVertices() {
				return http.StatusBadRequest, nil
			}
			pairs[i] = ugs.Pair{S: pr[0], T: pr[1]}
			sources[pr[0]] = true
		}
		if len(pairs) == 0 {
			return http.StatusBadRequest, nil
		}
		key = pairQueryKey(gid, opts, pairs)
		compute = func(parent int) (*queryResult, error) {
			var sp, rl []float64
			err := p.planned(req, parent, g, opts, queries.KindPair, len(sources), func(parent int) error {
				id := p.tr.begin(req, parent, "serve.batcher")
				var err error
				sp, rl, err = p.batcher.PairQuery(ctx, gid, g, pairs, opts)
				p.tr.end(id, func(s *span) { s.Graph, s.Seed, s.Work = gid, opts.Seed, work })
				return err
			})
			return &queryResult{sp: sp, rl: rl, samples: opts.Samples}, err
		}
	case "connected":
		key = "cn|" + scalarQueryKey(gid, opts)
		compute = func(parent int) (*queryResult, error) {
			var v float64
			err := p.planned(req, parent, g, opts, queries.KindConnectivity, 0, func(parent int) error {
				return p.estimate(req, parent, gid, opts.Seed, work, func() error {
					var err error
					v, _, err = ugs.ConnectedProbabilityRun(ctx, g, opts)
					return err
				})
			})
			return &queryResult{connected: v, samples: opts.Samples}, err
		}
	case "pagerank", "clustering":
		key = q.Kind + "|" + scalarQueryKey(gid, opts)
		compute = func(parent int) (*queryResult, error) {
			var vals []float64
			err := p.estimate(req, parent, gid, opts.Seed, work, func() error {
				var err error
				if q.Kind == "pagerank" {
					vals, err = ugs.ExpectedPageRank(ctx, g, opts, ugs.PageRankOptions{})
				} else {
					vals, err = ugs.ExpectedClusteringCoefficients(ctx, g, opts)
				}
				return err
			})
			return &queryResult{values: vals, samples: opts.Samples}, err
		}
	default:
		return http.StatusBadRequest, nil
	}

	cid := p.tr.begin(req, root, "serve.query_cache")
	entry, cached, err := p.queries.Do(ctx, key, func() (*queryResult, error) { return compute(cid) })
	p.tr.end(cid, func(s *span) { s.Hit = cached })
	if err != nil {
		return http.StatusInternalServerError, nil
	}
	resp := serve.QueryResponse{Kind: q.Kind, Samples: entry.samples, Lanes: ugs.FormatLanes(opts.Lanes),
		FanOut: ugs.FormatFanOut(opts.FanOut), Cached: cached}
	switch q.Kind {
	case "reliability", "distance":
		src := entry.rl
		if q.Kind == "distance" {
			src = entry.sp
		}
		resp.Values = nullableNaN(src)
	case "connected":
		v := entry.connected
		resp.Value = &v
	default:
		resp.Values = nullableNaN(entry.values)
	}
	return http.StatusOK, p.encode(req, root, resp)
}

// planned runs compute, first timing the planner's probe when the query
// leaves lanes or fan-out to the planner and this graph value has not been
// probed yet. The probe is what the estimator would run on entry; running it
// here, in its own span, keeps it out of the batcher and estimate spans.
func (p *pipeline) planned(req, parent int, g *ugs.Graph, opts ugs.MCOptions, kind queries.Kind, sources int, compute func(parent int) error) error {
	auto := opts.Lanes == 0 || (kind == queries.KindPair && opts.FanOut == 0)
	p.mu.Lock()
	first := auto && !p.probed[g]
	p.probed[g] = p.probed[g] || first
	p.mu.Unlock()
	if !first {
		return compute(parent)
	}
	fq := p.tr.begin(req, parent, "queries.planner.first_query")
	p.step(req, fq, "queries.planner.probe", func() error {
		queries.PlanLanes(g, opts, kind)
		if kind == queries.KindPair {
			queries.PlanFanOut(g, opts, sources, kind)
		}
		return nil
	})
	err := compute(fq)
	p.tr.end(fq, nil)
	return err
}

// estimate runs a Monte-Carlo call that is not coalesced inside a
// queries.estimate span.
func (p *pipeline) estimate(req, parent int, gid string, seed int64, work float64, f func() error) error {
	id := p.tr.begin(req, parent, "queries.estimate")
	err := f()
	p.tr.end(id, func(s *span) { s.Graph, s.Seed, s.Work = gid, seed, work })
	return err
}

func nullableNaN(vals []float64) []*float64 {
	out := make([]*float64, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			v := v
			out[i] = &v
		}
	}
	return out
}

func (p *pipeline) sparsify(ctx context.Context, o *op, req, root int) (int, []byte) {
	var sreq serve.SparsifyRequest
	if err := p.decode(req, root, o.body, &sreq); err != nil {
		return http.StatusBadRequest, nil
	}
	g, gid, release, err := p.acquire(ctx, req, root, sreq.Graph)
	if err != nil {
		return http.StatusNotFound, nil
	}
	defer release()
	sp, err := sreq.Spec.Sparsifier()
	if err != nil || !(sreq.Alpha > 0 && sreq.Alpha < 1) {
		return http.StatusBadRequest, nil
	}
	lrelease, err := p.admit(ctx, req, root, sparsifyCostSamples*int64(max(2*g.NumEdges(), 1)))
	if err != nil {
		return http.StatusTooManyRequests, nil
	}
	defer lrelease()
	key, id := requestKey(gid, sreq.Alpha, sreq.Spec)
	cid := p.tr.begin(req, root, "serve.sparsify_cache")
	entry, cached, err := p.sparse.Do(ctx, id, func() (*sparseResult, error) {
		sid := p.tr.begin(req, cid, "core.sparsify."+sreq.Method)
		start := time.Now()
		res, err := sp.Sparsify(ctx, g, sreq.Alpha)
		elapsed := time.Since(start)
		p.tr.end(sid, func(s *span) {
			if err == nil {
				s.Work = float64(res.Stats.EdgeVisits)
			}
		})
		if err != nil {
			return nil, err
		}
		return &sparseResult{graph: res.Graph, resp: serve.SparsifyResponse{
			ID: id, Key: key, Original: gid, Alpha: sreq.Alpha, Graph: serve.Info(id, res.Graph),
			RelativeEntropy: ugs.RelativeEntropy(res.Graph, g), Stats: res.Stats,
			ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		}}, nil
	})
	p.tr.end(cid, func(s *span) { s.Hit = cached })
	if err != nil {
		return http.StatusInternalServerError, nil
	}
	resp := entry.resp
	resp.Cached = cached
	return http.StatusOK, p.encode(req, root, resp)
}

func (p *pipeline) patch(ctx context.Context, o *op, req, root int) (int, []byte) {
	var preq serve.PatchRequest
	if err := p.decode(req, root, o.body, &preq); err != nil {
		return http.StatusBadRequest, nil
	}
	edits := make([]ugs.EdgeEdit, len(preq.Edits))
	for i, e := range preq.Edits {
		op, err := ugs.ParseEditOp(e.Op)
		if err != nil {
			return http.StatusBadRequest, nil
		}
		edits[i] = ugs.EdgeEdit{Op: op, U: e.U, V: e.V, P: e.P}
	}
	// Store.Patch applies the batch internally; applying it once more to
	// the same pinned graph here times the ugraph layer on its own.
	g, _, release, err := p.acquire(ctx, req, root, o.graph)
	if err != nil {
		return http.StatusNotFound, nil
	}
	p.step(req, root, "ugraph.apply_edits", func() error {
		_, err := ugs.ApplyEdits(g, edits)
		return err
	})
	release()
	var (
		info serve.GraphInfo
		gen  int
	)
	err = p.step(req, root, "serve.store.patch", func() error {
		var err error
		info, gen, err = p.store.Patch(ctx, o.graph, edits, preq.ExpectVersion)
		return err
	})
	switch {
	case errors.Is(err, serve.ErrPatchConflict):
		return http.StatusConflict, nil
	case err != nil:
		return http.StatusBadRequest, nil
	}
	return http.StatusOK, p.encode(req, root, serve.PatchResponse{Graph: o.graph, Version: gen, Applied: len(edits), Info: info})
}

// Cache identities, byte-for-byte those of serve's handlers (checked by
// TestPipelineCachesLikeServer).

func requestKey(graphID string, alpha float64, spec ugs.Spec) (key, id string) {
	key = graphID + "|a=" + strconv.FormatFloat(alpha, 'g', -1, 64) + "|" + spec.Key()
	sum := sha256.Sum256([]byte(key))
	return key, "sp-" + hex.EncodeToString(sum[:16])
}

func scalarQueryKey(gid string, opts ugs.MCOptions) string {
	return fmt.Sprintf("%s|s=%d|n=%d", gid, opts.Seed, opts.Samples)
}

func pairQueryKey(gid string, opts ugs.MCOptions, pairs []ugs.Pair) string {
	h := sha256.New()
	var buf [16]byte
	for _, pr := range pairs {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(pr.S))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(pr.T))
		h.Write(buf[:])
	}
	return fmt.Sprintf("pq|%s|%x", scalarQueryKey(gid, opts), h.Sum(nil)[:16])
}

// fillRecorder is the world cache as the engine sees it, wrapped so every
// block lookup becomes a serve.world_cache span (with a ugraph.fill child
// when the block had to be sampled). Lookups carry no request identity;
// attributeFills assigns them to requests after the run.
type fillRecorder struct{ p *pipeline }

func (f fillRecorder) GetOrFill(key ugs.FillKey, fill func() []uint64) []uint64 {
	t := f.p.tr
	start := t.now()
	var fillStart, fillEnd int64
	block := f.p.worlds.GetOrFill(key, func() []uint64 {
		fillStart = t.now()
		b := fill()
		fillEnd = t.now()
		return b
	})
	id := t.add(span{Req: unattributed, Name: "serve.world_cache", Start: start, End: t.now(), Hit: fillEnd == 0, Graph: key.Graph, Seed: key.Seed})
	if fillEnd != 0 {
		t.add(span{Req: unattributed, Parent: id, Name: "ugraph.fill", Start: fillStart, End: fillEnd, Graph: key.Graph, Seed: key.Seed})
	}
	return block
}
