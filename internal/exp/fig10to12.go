package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"ugs/internal/mc"
	"ugs/internal/queries"
	"ugs/internal/stats"
	"ugs/internal/ugraph"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: earth mover's distance of PR, SP, RL, CC vs α (real-like datasets)",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: earth mover's distance of PR and SP vs density (synthetic, α=16%)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: relative variance of MC estimators for PR, SP, RL, CC",
		Run:   runFig12,
	})
}

var queryNames = []string{"PR", "SP", "RL", "CC"}

// observations holds, for each query, the per-entity outcome distribution:
// expected PageRank and clustering coefficient per vertex, and expected
// conditional shortest-path distance and reliability per sampled pair.
type observations [4][]float64

// evalQueries evaluates the four queries on g. Pairs are shared between G
// and its sparsifications so the distributions are comparable.
func evalQueries(ctx context.Context, g *ugraph.Graph, pairs []queries.Pair, opts mc.Options) (observations, error) {
	var obs observations
	var err error
	if obs[0], err = queries.ExpectedPageRank(ctx, g, opts, queries.PageRankOptions{}); err != nil {
		return obs, err
	}
	if obs[1], obs[2], err = queries.ShortestDistanceAndReliability(ctx, g, pairs, opts); err != nil {
		return obs, err
	}
	if obs[3], err = queries.ExpectedClusteringCoefficients(ctx, g, opts); err != nil {
		return obs, err
	}
	return obs, nil
}

// mcOptions builds the Monte-Carlo engine options for a query run. SP, RL
// and connectivity estimates ride the bit-parallel batch engine at the
// width Cfg.Lanes pins (1 is the scalar ablation), Cfg.FanOut pins the
// multi-source group size the pair estimators batch their many distinct
// sources into, and Cfg.ConfEps switches the pair estimators to sequential
// stopping (vector queries keep the fixed budget — their per-vertex
// estimates have no shared stopping statistic).
func (c *Context) mcOptions(samples int) mc.Options {
	o := mc.Options{Samples: samples, Seed: c.Cfg.Seed + 1000, Workers: c.Cfg.Workers, Lanes: c.Cfg.Lanes, FanOut: c.Cfg.FanOut}
	if c.Cfg.ConfEps > 0 {
		t := mc.WithConfidence(c.Cfg.ConfEps, c.Cfg.ConfDelta)
		t.MaxSamples = samples * 16
		o.Target = t // Samples stays: vector queries keep the fixed budget
	}
	return o
}

func runFig10(w io.Writer, ctx *Context) error {
	s := ctx.Cfg.scale()
	for _, ds := range realLikeDatasets(ctx) {
		rng := rand.New(rand.NewSource(ctx.Cfg.Seed + 400))
		pairs := queries.RandomPairs(ds.g.NumVertices(), s.pairs, rng)
		base, err := evalQueries(ctx.Ctx(), ds.g, pairs, ctx.mcOptions(s.mcSamples))
		if err != nil {
			return err
		}

		for q, qn := range queryNames {
			t := &table{
				title: fmt.Sprintf("Figure 10: D_em of %s vs α (%s)", qn, ds.name),
				cols:  append([]string{"method"}, alphaCols(s.alphas)...),
			}
			// One sparsification per (method, α), reused across queries via
			// caching below; evaluate lazily per query to keep memory low.
			for _, spec := range comparisonMethods() {
				row := []string{displayName(spec)}
				for _, alpha := range s.alphas {
					obs, err := ctx.sparseObservations(ds.name, ds.g, spec, alpha, pairs, s.mcSamples)
					if err != nil {
						return err
					}
					row = append(row, e3(stats.EarthMovers(base[q], obs[q])))
				}
				t.add(row...)
			}
			if err := t.fprint(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// sparseObservations caches query observations per (dataset, method, α) so
// the four per-query tables of Figure 10 reuse one sparsification + MC run.
func (c *Context) sparseObservations(dsName string, g *ugraph.Graph, spec MethodSpec, alpha float64, pairs []queries.Pair, samples int) (observations, error) {
	key := fmt.Sprintf("obs/%s/%s/%g", dsName, spec.Name, alpha)
	c.mu.Lock()
	if c.obsCache == nil {
		c.obsCache = make(map[string]observations)
	}
	if obs, ok := c.obsCache[key]; ok {
		c.mu.Unlock()
		return obs, nil
	}
	c.mu.Unlock()

	sparse, err := spec.Run(c.Ctx(), g, alpha, c.Cfg.Seed)
	if err != nil {
		return observations{}, err
	}
	obs, err := evalQueries(c.Ctx(), sparse, pairs, c.mcOptions(samples))
	if err != nil {
		return observations{}, err
	}

	c.mu.Lock()
	c.obsCache[key] = obs
	c.mu.Unlock()
	return obs, nil
}

func runFig11(w io.Writer, ctx *Context) error {
	s := ctx.Cfg.scale()
	const alpha = 0.16
	family := ctx.DensityFamily()
	densCols := make([]string, len(family))
	for i, di := range family {
		densCols[i] = fmt.Sprintf("%.0f%%", di.Density*100)
	}
	prT := &table{
		title: "Figure 11(a): D_em of PR vs density (synthetic, α=16%)",
		cols:  append([]string{"method"}, densCols...),
	}
	spT := &table{
		title: "Figure 11(b): D_em of SP vs density (synthetic, α=16%)",
		cols:  append([]string{"method"}, densCols...),
	}
	for _, spec := range comparisonMethods() {
		prRow := []string{displayName(spec)}
		spRow := []string{displayName(spec)}
		for _, di := range family {
			rng := rand.New(rand.NewSource(ctx.Cfg.Seed + 500))
			pairs := queries.RandomPairs(di.G.NumVertices(), s.pairs, rng)
			base, err := evalQueries(ctx.Ctx(), di.G, pairs, ctx.mcOptions(s.mcSamples))
			if err != nil {
				return err
			}
			obs, err := ctx.sparseObservations(fmt.Sprintf("density-%g", di.Density), di.G, spec, alpha, pairs, s.mcSamples)
			if err != nil {
				return err
			}
			prRow = append(prRow, e3(stats.EarthMovers(base[0], obs[0])))
			spRow = append(spRow, e3(stats.EarthMovers(base[1], obs[1])))
		}
		prT.add(prRow...)
		spT.add(spRow...)
	}
	if err := prT.fprint(w); err != nil {
		return err
	}
	return spT.fprint(w)
}

// scalarEstimators returns the Φ(G) summaries whose run-to-run variance
// Figure 12 reports: the PageRank of the highest-expected-degree vertex,
// the mean conditional SP distance and mean reliability over fixed pairs,
// and the mean clustering coefficient. An estimator error (only possible on
// cancellation) surfaces as NaN; the surrounding experiment then aborts on
// its next context check.
func scalarEstimators(ctx context.Context, g *ugraph.Graph, pairs []queries.Pair, samples, workers, lanes int) [4]func(run int) float64 {
	hub := 0
	d := g.ExpectedDegrees()
	for v, dv := range d {
		if dv > d[hub] {
			hub = v
		}
	}
	opts := func(run int) mc.Options {
		return mc.Options{Samples: samples, Seed: int64(run)*7919 + 13, Workers: workers, Lanes: lanes}
	}
	return [4]func(run int) float64{
		func(run int) float64 {
			pr, err := queries.ExpectedPageRank(ctx, g, opts(run), queries.PageRankOptions{})
			if err != nil {
				return math.NaN()
			}
			return pr[hub]
		},
		func(run int) float64 {
			sp, _, err := queries.ShortestDistanceAndReliability(ctx, g, pairs, opts(run))
			if err != nil {
				return math.NaN()
			}
			return nanMean(sp)
		},
		func(run int) float64 {
			_, rl, err := queries.ShortestDistanceAndReliability(ctx, g, pairs, opts(run))
			if err != nil {
				return math.NaN()
			}
			return stats.Mean(rl)
		},
		func(run int) float64 {
			cc, err := queries.ExpectedClusteringCoefficients(ctx, g, opts(run))
			if err != nil {
				return math.NaN()
			}
			return stats.Mean(cc)
		},
	}
}

func nanMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

func runFig12(w io.Writer, ctx *Context) error {
	s := ctx.Cfg.scale()
	for _, ds := range realLikeDatasets(ctx) {
		rng := rand.New(rand.NewSource(ctx.Cfg.Seed + 600))
		// Fewer pairs than fig10: each estimator runs varianceRuns times.
		pairs := queries.RandomPairs(ds.g.NumVertices(), s.pairs/2, rng)

		baseVar := [4]float64{}
		baseEst := scalarEstimators(ctx.Ctx(), ds.g, pairs, s.varianceSamples, ctx.Cfg.Workers, ctx.Cfg.Lanes)
		for q := range baseEst {
			_, v := stats.EstimatorVariance(s.varianceRuns, baseEst[q])
			baseVar[q] = v
		}
		// Estimators swallow cancellation into NaN; abort here rather than
		// rendering (and reporting success for) a table of garbage rows.
		if err := ctx.Ctx().Err(); err != nil {
			return err
		}

		t := &table{
			title: fmt.Sprintf("Figure 12: relative variance σ̂(G')/σ̂(G) at α=16%% (%s)", ds.name),
			cols:  append([]string{"method"}, queryNames...),
		}
		for _, spec := range comparisonMethods() {
			sparse, err := spec.Run(ctx.Ctx(), ds.g, 0.16, ctx.Cfg.Seed)
			if err != nil {
				return err
			}
			est := scalarEstimators(ctx.Ctx(), sparse, pairs, s.varianceSamples, ctx.Cfg.Workers, ctx.Cfg.Lanes)
			row := []string{displayName(spec)}
			for q := range est {
				_, v := stats.EstimatorVariance(s.varianceRuns, est[q])
				if baseVar[q] == 0 {
					row = append(row, "n/a")
				} else {
					row = append(row, e3(v/baseVar[q]))
				}
			}
			if err := ctx.Ctx().Err(); err != nil {
				return err
			}
			t.add(row...)
		}
		if err := t.fprint(w); err != nil {
			return err
		}
	}
	return nil
}
