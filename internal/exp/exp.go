// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section on the synthetic stand-in
// datasets (see DESIGN.md §3 for the substitution rationale). Each
// experiment prints the same rows/series the paper reports; absolute values
// differ (different data, different hardware) but the shapes — method
// orderings, error magnitudes, crossovers — are the reproduction target.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// Config selects the experiment scale.
type Config struct {
	// Full switches from CI-scale parameters (seconds per experiment) to
	// paper-scale ones (minutes to hours).
	Full bool
	// Seed drives dataset generation and all randomized steps.
	Seed int64
	// Workers is the Monte-Carlo parallelism (0 = GOMAXPROCS).
	Workers int
	// Lanes pins the batch-engine world width (64 or 256 lanes), or 1 to
	// force the scalar one-world-per-traversal ablation. 0 lets the planner
	// choose; results are bit-identical at any width.
	Lanes int
	// FanOut pins the source group size of the pair estimators' source
	// traversals (1 = one traversal per source, the per-source ablation;
	// 8 = groups of eight sources); pairs routed to pair searches ignore
	// it. 0 lets the planner choose; results are bit-identical at
	// any fan-out.
	FanOut int
	// ConfEps, when > 0, switches the Monte-Carlo query phases to adaptive
	// sequential stopping: sample until every estimate's CI half-width is
	// ≤ ConfEps at confidence 1−ConfDelta (ConfDelta 0 means the 0.05
	// default), capped at the scale's fixed sample budget ×16.
	ConfEps   float64
	ConfDelta float64
	// Ctx, when non-nil, bounds every sparsification run: cancelling it
	// aborts the experiment batch. Nil means context.Background().
	Ctx context.Context
}

// scale bundles every size parameter in one place.
type scale struct {
	flickrN, flickrDeg   int
	twitterN, twitterDeg int
	reducedBase, reduced int
	densityN             int
	alphas               []float64
	densities            []float64
	mcSamples            int
	pairs                int
	varianceRuns         int
	varianceSamples      int
	cutSamplesPerK       int
	cutMaxK              int
}

func (c Config) scale() scale {
	if c.Full {
		return scale{
			flickrN: 2000, flickrDeg: 60,
			twitterN: 2000, twitterDeg: 25,
			reducedBase: 2000, reduced: 800,
			densityN:        500,
			alphas:          []float64{0.08, 0.16, 0.32, 0.64},
			densities:       []float64{0.15, 0.30, 0.50, 0.90},
			mcSamples:       500,
			pairs:           1000,
			varianceRuns:    100,
			varianceSamples: 200,
			cutSamplesPerK:  1000,
			cutMaxK:         40,
		}
	}
	return scale{
		flickrN: 200, flickrDeg: 25,
		twitterN: 220, twitterDeg: 12,
		reducedBase: 400, reduced: 150,
		densityN:        100,
		alphas:          []float64{0.08, 0.16, 0.32, 0.64},
		densities:       []float64{0.15, 0.30, 0.50, 0.90},
		mcSamples:       40,
		pairs:           100,
		varianceRuns:    8,
		varianceSamples: 40,
		cutSamplesPerK:  100,
		cutMaxK:         10,
	}
}

// Context carries the configuration and lazily built, cached datasets shared
// across experiments.
type Context struct {
	Cfg Config

	mu       sync.Mutex
	cache    map[string]*ugraph.Graph
	obsCache map[string]observations
}

// NewContext returns a fresh experiment context.
func NewContext(cfg Config) *Context {
	return &Context{Cfg: cfg, cache: make(map[string]*ugraph.Graph)}
}

// Ctx returns the cancellation context experiments run under.
func (c *Context) Ctx() context.Context {
	if c.Cfg.Ctx != nil {
		return c.Cfg.Ctx
	}
	return context.Background()
}

func (c *Context) cached(key string, build func() *ugraph.Graph) *ugraph.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.cache[key]; ok {
		return g
	}
	g := build()
	c.cache[key] = g
	return g
}

// Flickr returns the Flickr-like dataset (dense, E[p] ≈ 0.09).
func (c *Context) Flickr() *ugraph.Graph {
	s := c.Cfg.scale()
	return c.cached("flickr", func() *ugraph.Graph {
		g, err := gen.Social(gen.SocialConfig{
			N: s.flickrN, AvgDegree: float64(s.flickrDeg), MeanProb: 0.09, Seed: c.Cfg.Seed + 1,
		})
		if err != nil {
			panic(err)
		}
		return g
	})
}

// Twitter returns the Twitter-like dataset (sparser, E[p] ≈ 0.15).
func (c *Context) Twitter() *ugraph.Graph {
	s := c.Cfg.scale()
	return c.cached("twitter", func() *ugraph.Graph {
		g, err := gen.Social(gen.SocialConfig{
			N: s.twitterN, AvgDegree: float64(s.twitterDeg), MeanProb: 0.15, Seed: c.Cfg.Seed + 2,
		})
		if err != nil {
			panic(err)
		}
		return g
	})
}

// FlickrReduced returns the Forest-Fire sample of the Flickr-like graph
// (the paper's "Flickr reduced" used for Table 2 and Figures 4–5, where LP
// must stay tractable).
func (c *Context) FlickrReduced() *ugraph.Graph {
	s := c.Cfg.scale()
	return c.cached("flickr-reduced", func() *ugraph.Graph {
		base, err := gen.Social(gen.SocialConfig{
			N: s.reducedBase, AvgDegree: float64(s.flickrDeg), MeanProb: 0.09, Seed: c.Cfg.Seed + 3,
		})
		if err != nil {
			panic(err)
		}
		sub, _, err := gen.ForestFire(base, s.reduced, 0.6, c.Cfg.Seed+4)
		if err != nil {
			panic(err)
		}
		lc, _, err := sub.LargestComponent()
		if err != nil {
			panic(err)
		}
		return lc
	})
}

// DensityFamily returns the synthetic densification datasets of Table 1:
// an induced base graph plus random edges until 15/30/50/90% of the
// complete graph.
func (c *Context) DensityFamily() []DensityInstance {
	s := c.Cfg.scale()
	out := make([]DensityInstance, len(s.densities))
	for i, d := range s.densities {
		d := d
		g := c.cached(fmt.Sprintf("density-%g", d), func() *ugraph.Graph {
			base, err := gen.Social(gen.SocialConfig{
				N: s.densityN, AvgDegree: 10, MeanProb: 0.09, Seed: c.Cfg.Seed + 5,
			})
			if err != nil {
				panic(err)
			}
			dg, err := gen.Densify(base, d, 0.09, c.Cfg.Seed+6)
			if err != nil {
				panic(err)
			}
			return dg
		})
		out[i] = DensityInstance{Density: d, G: g}
	}
	return out
}

// DensityInstance is one member of the densification family.
type DensityInstance struct {
	Density float64 // fraction of the complete graph
	G       *ugraph.Graph
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	ID    string // e.g. "table2", "fig10"
	Title string
	Run   func(w io.Writer, ctx *Context) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, ordered by ID registration.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table renders an aligned text table.
type table struct {
	title string
	cols  []string
	rows  [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, c := range t.cols {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	for _, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func e3(x float64) string { return fmt.Sprintf("%.3e", x) }
