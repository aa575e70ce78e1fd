package queries

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// PageRankOptions tunes the PR estimator.
type PageRankOptions struct {
	Damping float64 // default 0.85
	Iters   int     // power iterations per world, default 30
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Iters == 0 {
		o.Iters = 30
	}
	return o
}

// ExpectedPageRank estimates each vertex's expected PageRank over the
// possible worlds of g. A vector-valued query: always scalar worlds (the
// planner never routes it to the batch engine). Each engine worker reuses
// one Workspace, so the sample path does not allocate.
func ExpectedPageRank(ctx context.Context, g *ugraph.Graph, opts mc.Options, pr PageRankOptions) ([]float64, error) {
	pr = pr.withDefaults()
	return mc.MeanVectorLocal(ctx, g, opts, g.NumVertices(),
		func() *Workspace { return NewWorkspace(g) },
		func(w *ugraph.World, ws *Workspace, out []float64) {
			ws.PageRank(w, pr.Damping, pr.Iters, out)
		},
	)
}

// ExpectedClusteringCoefficients estimates each vertex's expected local
// clustering coefficient over the possible worlds of g. A vector-valued
// query: always scalar worlds. Each engine worker reuses one Workspace, so
// the sample path does not allocate.
func ExpectedClusteringCoefficients(ctx context.Context, g *ugraph.Graph, opts mc.Options) ([]float64, error) {
	return mc.MeanVectorLocal(ctx, g, opts, g.NumVertices(),
		func() *Workspace { return NewWorkspace(g) },
		func(w *ugraph.World, ws *Workspace, out []float64) {
			ws.ClusteringCoefficients(w, out)
		},
	)
}

// Pair is a source/target vertex pair for SP and RL queries.
type Pair struct{ S, T int }

// RandomPairs draws count distinct-endpoint vertex pairs uniformly at
// random (the paper evaluates SP and RL on 1000 random pairs). Self-pairs
// s == t are never produced — their reliability is trivially 1 and their
// distance trivially 0, which would skew the Figure 10 averages — so n must
// be at least 2 when count > 0.
func RandomPairs(n, count int, rng *rand.Rand) []Pair {
	if count > 0 && n < 2 {
		panic("queries: RandomPairs needs at least 2 vertices for distinct-endpoint pairs")
	}
	pairs := make([]Pair, count)
	for i := range pairs {
		// Draw t from the n−1 non-s vertices directly (shifting past s)
		// instead of rejection sampling: same uniform distribution over
		// distinct pairs, fixed two draws per pair.
		s := rng.Intn(n)
		t := rng.Intn(n - 1)
		if t >= s {
			t++
		}
		pairs[i] = Pair{S: s, T: t}
	}
	return pairs
}

// Reliability estimates, for each pair, the probability that T is reachable
// from S (the RL query). It runs on the bit-parallel batch engine at the
// width opts.Lanes selects (auto-planned by default; Lanes: 1 is the scalar
// ablation); every width is bit-identical.
func Reliability(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]float64, error) {
	out, _, err := ReliabilityRun(ctx, g, pairs, opts)
	return out, err
}

// ReliabilityRun is Reliability plus the run report: the worlds actually
// sampled and, for sequential-stopping runs (opts.Target), the rounds taken
// and whether the confidence target was met before MaxSamples.
func ReliabilityRun(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]float64, mc.RunInfo, error) {
	res, info, err := pairStats(ctx, g, pairs, opts)
	if err != nil {
		return nil, mc.RunInfo{}, err
	}
	out := make([]float64, len(pairs))
	for i, r := range res {
		out[i] = float64(r.reachable) / float64(r.samples)
	}
	return out, info, nil
}

// ShortestDistance estimates, for each pair, the expected shortest-path
// distance conditioned on reachability: the average hop distance over the
// worlds that connect the pair, excluding disconnecting worlds (the SP
// query). Pairs never connected in any sample get NaN.
func ShortestDistance(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]float64, error) {
	res, _, err := pairStats(ctx, g, pairs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pairs))
	for i, r := range res {
		if r.reachable == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = r.distSum / float64(r.reachable)
		}
	}
	return out, nil
}

// ShortestDistanceAndReliability computes the SP and RL estimates of both
// queries from a single Monte-Carlo pass (per world batch, one pair search
// per pair whose source has few targets and one traversal per remaining
// source — or one traversal per source per world at Lanes: 1), which is how
// the experiment harness evaluates them together.
func ShortestDistanceAndReliability(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) (sp, rl []float64, err error) {
	sp, rl, _, err = ShortestDistanceAndReliabilityRun(ctx, g, pairs, opts)
	return sp, rl, err
}

// ShortestDistanceAndReliabilityRun is ShortestDistanceAndReliability plus
// the run report (see ReliabilityRun).
func ShortestDistanceAndReliabilityRun(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) (sp, rl []float64, info mc.RunInfo, err error) {
	res, info, err := pairStats(ctx, g, pairs, opts)
	if err != nil {
		return nil, nil, mc.RunInfo{}, err
	}
	sp = make([]float64, len(pairs))
	rl = make([]float64, len(pairs))
	for i, r := range res {
		rl[i] = float64(r.reachable) / float64(r.samples)
		if r.reachable == 0 {
			sp[i] = math.NaN()
		} else {
			sp[i] = r.distSum / float64(r.reachable)
		}
	}
	return sp, rl, info, nil
}

type pairResult struct {
	reachable int
	samples   int
	distSum   float64
}

// groupPairsBySource groups pair indices by their source vertex so one
// traversal per (world-batch, source) serves every pair with that source.
func groupPairsBySource(pairs []Pair) (bySource map[int][]int, sources []int) {
	bySource = make(map[int][]int)
	for i, p := range pairs {
		bySource[p.S] = append(bySource[p.S], i)
	}
	sources = make([]int, 0, len(bySource))
	for s := range bySource {
		sources = append(sources, s)
	}
	sort.Ints(sources)
	return bySource, sources
}

func mergePairResults(dst, src []pairResult) {
	for i := range dst {
		dst[i].samples += src[i].samples
		dst[i].reachable += src[i].reachable
		dst[i].distSum += src[i].distSum
	}
}

// pairStats runs SP/RL accumulation for the pairs: a single fixed-budget
// engine pass at the planned lane width, or — when opts.Target asks for
// sequential stopping — deterministic doubling rounds until every pair's
// reliability confidence interval has half-width ≤ Eps (the SP estimate is
// a conditional mean over the same worlds, so it tightens alongside). All
// execution paths accumulate integer-valued quantities (hit counts and sums
// of hop distances, exact in float64), so their results are bit-identical
// on the same seed for every Workers value and every lane width.
func pairStats(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]pairResult, mc.RunInfo, error) {
	if err := opts.Validate(); err != nil {
		return nil, mc.RunInfo{}, err
	}
	if opts.Target != nil {
		return pairStatsAdaptive(ctx, g, pairs, opts)
	}
	res, err := pairStatsFixed(ctx, g, pairs, opts)
	if err != nil {
		return nil, mc.RunInfo{}, err
	}
	return res, mc.RunInfo{Samples: opts.WithDefaults().Samples, Rounds: 1, Converged: true}, nil
}

// pairStatsFixed runs one fixed-budget pass at the engine width the planner
// (or explicit Options) picks for its budget. Scalar worlds, the reference,
// run one BFS per source per world whatever the fan-out. Batch widths route
// the pairs first (routePairs): few-target sources get one pair search per
// pair, the rest one source traversal per source or per full source group,
// all inside the same pass.
func pairStatsFixed(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]pairResult, error) {
	lanes := planLanes(opts, KindPair)
	if lanes == 1 {
		return pairStatsScalar(ctx, g, pairs, opts)
	}
	r := routePairs(pairs)
	fan := planFanOut(opts, len(r.sources), lanes)
	if lanes == ugraph.BatchLanes {
		return pairStatsBatch[ugraph.Vec64](ctx, g, pairs, opts, r, fan)
	}
	return pairStatsBatch[ugraph.Vec256](ctx, g, pairs, opts, r, fan)
}

// pairStatsAdaptive drives the sequential-stopping schedule: each round is
// a fixed-budget pass over the next stretch of the sample stream (via
// Options.Offset, so no world is ever redrawn), and between rounds every
// pair's Bernoulli reliability CI is checked against the target. Each
// round is planned from its own budget, so the 128-sample opening rounds run
// the narrow shapes and only the doubled later rounds go wide; every shape
// returns bit-identical counts, so the plan never changes the estimate.
func pairStatsAdaptive(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]pairResult, mc.RunInfo, error) {
	t := opts.Target.WithDefaults()
	acc := make([]pairResult, len(pairs))
	run := func(offset, n int) error {
		o := opts
		o.Target = nil
		o.Offset = opts.Offset + offset
		o.Samples = n
		res, err := pairStatsFixed(ctx, g, pairs, o)
		if err != nil {
			return err
		}
		mergePairResults(acc, res)
		return nil
	}
	met := func(total int) bool {
		for i := range acc {
			if t.HalfWidth(acc[i].reachable, total) > t.Eps {
				return false
			}
		}
		return true
	}
	info, err := mc.RunAdaptive(opts.Target, run, met)
	if err != nil {
		return nil, mc.RunInfo{}, err
	}
	for i := range acc {
		if hw := t.HalfWidth(acc[i].reachable, info.Samples); hw > info.AchievedEps {
			info.AchievedEps = hw
		}
	}
	return acc, info, nil
}

// kernels is one batch engine worker's traversal state. The kernels share
// one arc table, so each batch fill is gathered once whichever of them run,
// and a kernel a run does not use allocates nothing. Workers draw kernels
// from a per-width pool and return them when the run ends, so a warm run
// allocates no traversal state: each kernel re-sizes itself to the run's
// graph, and the arc table is unbound on release, so pooled kernels keep no
// graph or batch alive.
type kernels[V ugraph.Vec] struct {
	tab arcTable[V]
	ps  PairSearch[V] // searched pairs
	bfs MaskBFS[V]    // connectivity, and source traversals outside full groups
	ms  MSBFS         // full groups of groupFanOut source traversals (64 lanes)
}

// kernelPools holds idle kernels, one pool per width, indexed by the
// width's word count.
var kernelPools [ugraph.MaxBatchLanes/ugraph.BatchLanes + 1]sync.Pool

func kernelPool[V ugraph.Vec]() *sync.Pool {
	return &kernelPools[ugraph.VecLanes[V]()/ugraph.BatchLanes]
}

// reduceKernels is mc.ReduceBatch with each worker's kernels drawn from the
// width's pool; they go back when the run returns, by which time every
// worker has finished.
func reduceKernels[V ugraph.Vec, A any](ctx context.Context, g *ugraph.Graph, opts mc.Options,
	newAcc func() A,
	visit func(start int, wb *ugraph.WorldBatch[V], k *kernels[V], acc A),
	merge func(dst, src A),
) (A, error) {
	var (
		mu   sync.Mutex
		held []*kernels[V]
	)
	defer func() {
		for _, k := range held {
			k.tab.unbind()
			kernelPool[V]().Put(k)
		}
	}()
	return mc.ReduceBatch(ctx, g, opts,
		func() *kernels[V] {
			k, _ := kernelPool[V]().Get().(*kernels[V])
			if k == nil {
				k = new(kernels[V])
				k.ps.arcTable, k.bfs.arcTable = &k.tab, &k.tab
				// nil at 256 lanes, whose source traversals never group
				k.ms.arcTable, _ = any(&k.tab).(*arcTable[ugraph.Vec64])
			}
			mu.Lock()
			held = append(held, k)
			mu.Unlock()
			return k
		},
		newAcc, visit, merge)
}

// pairStatsBatch runs one routed pass over lane-transposed world batches.
// Per batch it answers each searched pair with one pair search, then each
// traversal source with one mask-BFS — except that at fan = groupFanOut
// (64 lanes only, see planFanOut) each full group of that many sources
// shares one MSBFS traversal, which expands each CSR arc once per level for
// the whole group, amortizing the arc stream across sources the way the
// lane transposition amortizes it across worlds. Every kernel folds
// VecLanes[V] worlds of SP/RL evidence per pair in O(1): the reachability
// popcount and the exact integer depth sum at the target, so per-pair
// results do not depend on the route, the fan-out or the width.
func pairStatsBatch[V ugraph.Vec](ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options, r pairRoute, fan int) ([]pairResult, error) {
	grouped := 0
	if fan == groupFanOut {
		grouped = len(r.sources) - len(r.sources)%groupFanOut
	}
	return reduceKernels(ctx, g, opts,
		func() []pairResult { return make([]pairResult, len(pairs)) },
		func(_ int, wb *ugraph.WorldBatch[V], k *kernels[V], acc []pairResult) {
			lanes := wb.Lanes()
			add := func(i, reached int, depthSum int64) {
				acc[i].samples += lanes
				acc[i].reachable += reached
				acc[i].distSum += float64(depthSum)
			}
			for _, i := range r.searched {
				reach, depthSum := k.ps.Search(wb, pairs[i].S, pairs[i].T)
				add(i, ugraph.VecOnesCount(reach), depthSum)
			}
			for base := 0; base < grouped; base += groupFanOut {
				grp := [groupFanOut]int(r.sources[base:])
				k.ms.ReachFrom(any(wb).(*ugraph.WorldBatch[ugraph.Vec64]), grp)
				for slot, s := range grp {
					for _, i := range r.bySource[s] {
						t := pairs[i].T
						add(i, ugraph.VecOnesCount(k.ms.Reach(t, slot)), k.ms.DepthSum(t, slot))
					}
				}
			}
			for _, s := range r.sources[grouped:] {
				reach := k.bfs.ReachFrom(wb, s)
				depthSum := k.bfs.DepthSums()
				for _, i := range r.bySource[s] {
					t := pairs[i].T
					add(i, ugraph.VecOnesCount(reach[t]), depthSum[t])
				}
			}
		},
		mergePairResults,
	)
}

// pairStatsScalar runs one BFS per distinct source per world, sharing it
// across all pairs with that source. Each engine worker reuses one BFS;
// per-block accumulators keep the sample path lock- and allocation-free.
func pairStatsScalar(ctx context.Context, g *ugraph.Graph, pairs []Pair, opts mc.Options) ([]pairResult, error) {
	bySource, sources := groupPairsBySource(pairs)
	return mc.Reduce(ctx, g, opts,
		func() *BFS { return NewBFS(g.NumVertices()) },
		func() []pairResult { return make([]pairResult, len(pairs)) },
		func(_ int, w *ugraph.World, bfs *BFS, acc []pairResult) {
			for _, s := range sources {
				dist := bfs.Distances(w, s)
				for _, i := range bySource[s] {
					acc[i].samples++
					if d := dist[pairs[i].T]; d >= 0 {
						acc[i].reachable++
						acc[i].distSum += float64(d)
					}
				}
			}
		},
		mergePairResults,
	)
}

// hitStats is the Bernoulli accumulator of the connectivity estimator.
type hitStats struct{ hits, n int }

func mergeHitStats(dst, src *hitStats) {
	dst.hits += src.hits
	dst.n += src.n
}

// ConnectedProbability estimates Pr[G is connected] — the introductory
// example query of the paper (Figure 1). Per lane vector of sampled worlds,
// a screen for vertices with no present edge settles most lanes, and one
// mask-BFS plus an AND-sweep the rest (MaskBFS.ConnectedLanes); the scalar
// ablation walks one world per BFS instead. Hit counts are integers, so
// every path, width and Workers value agrees bit-identically.
func ConnectedProbability(ctx context.Context, g *ugraph.Graph, opts mc.Options) (float64, error) {
	p, _, err := ConnectedProbabilityRun(ctx, g, opts)
	return p, err
}

// ConnectedProbabilityRun is ConnectedProbability plus the run report (see
// ReliabilityRun).
func ConnectedProbabilityRun(ctx context.Context, g *ugraph.Graph, opts mc.Options) (float64, mc.RunInfo, error) {
	if err := opts.Validate(); err != nil {
		return 0, mc.RunInfo{}, err
	}
	if opts.Target != nil {
		return connectedAdaptive(ctx, g, opts)
	}
	st, err := connectedFixed(ctx, g, opts)
	if err != nil {
		return 0, mc.RunInfo{}, err
	}
	return float64(st.hits) / float64(st.n),
		mc.RunInfo{Samples: st.n, Rounds: 1, Converged: true}, nil
}

func connectedFixed(ctx context.Context, g *ugraph.Graph, opts mc.Options) (*hitStats, error) {
	switch planLanes(opts, KindConnectivity) {
	case 1:
		return mc.Reduce(ctx, g, opts,
			func() *BFS { return NewBFS(g.NumVertices()) },
			func() *hitStats { return &hitStats{} },
			func(_ int, w *ugraph.World, bfs *BFS, acc *hitStats) {
				acc.n++
				if bfs.Connected(w) {
					acc.hits++
				}
			},
			mergeHitStats,
		)
	case ugraph.BatchLanes:
		return connectedBatch[ugraph.Vec64](ctx, g, opts)
	default:
		return connectedBatch[ugraph.Vec256](ctx, g, opts)
	}
}

func connectedBatch[V ugraph.Vec](ctx context.Context, g *ugraph.Graph, opts mc.Options) (*hitStats, error) {
	return reduceKernels(ctx, g, opts,
		func() *hitStats { return &hitStats{} },
		func(_ int, wb *ugraph.WorldBatch[V], k *kernels[V], acc *hitStats) {
			acc.n += wb.Lanes()
			acc.hits += ugraph.VecOnesCount(k.bfs.ConnectedLanes(wb))
		},
		mergeHitStats,
	)
}

func connectedAdaptive(ctx context.Context, g *ugraph.Graph, opts mc.Options) (float64, mc.RunInfo, error) {
	t := opts.Target.WithDefaults()
	acc := hitStats{}
	run := func(offset, n int) error {
		o := opts
		o.Target = nil
		o.Offset = opts.Offset + offset
		o.Samples = n
		st, err := connectedFixed(ctx, g, o)
		if err != nil {
			return err
		}
		mergeHitStats(&acc, st)
		return nil
	}
	met := func(total int) bool {
		return t.HalfWidth(acc.hits, total) <= t.Eps
	}
	info, err := mc.RunAdaptive(opts.Target, run, met)
	if err != nil {
		return 0, mc.RunInfo{}, err
	}
	info.AchievedEps = t.HalfWidth(acc.hits, info.Samples)
	return float64(acc.hits) / float64(acc.n), info, nil
}
