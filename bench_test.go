package ugs_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (each regenerates the experiment at CI scale —
// run `go run ./cmd/ugs-exp -full <id>` for paper-scale numbers), plus the
// ablation benchmarks and micro-benchmarks of the hot paths described in
// README's "Performance" section. Sparsifiers are resolved through the
// registry API (ugs.Lookup + functional options) — the same path production
// callers use.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ugs"
	"ugs/internal/core"
	"ugs/internal/exp"
	"ugs/internal/mc"
	"ugs/internal/queries"
	"ugs/internal/ugraph"
)

// benchExperiment regenerates one table/figure per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	ctx := exp.NewContext(exp.Config{Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B)          { benchExperiment(b, "table1") }
func BenchmarkTable2DegreeDiscrepancy(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig4CutDiscrepancy(b *testing.B)      { benchExperiment(b, "fig4a") }
func BenchmarkFig4bTime(b *testing.B)               { benchExperiment(b, "fig4b") }
func BenchmarkFig5EntropyParam(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6Benchmarks(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7Density(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8Entropy(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9Time(b *testing.B)                { benchExperiment(b, "fig9") }
func BenchmarkFig10Queries(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11QueriesDensity(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12Variance(b *testing.B)           { benchExperiment(b, "fig12") }

// benchGraph is the shared fixture for the method and ablation benchmarks.
func benchGraph(b *testing.B) *ugs.Graph {
	b.Helper()
	return ugs.FlickrLike(300, 42)
}

// benchSparsify resolves a registry method and runs one sparsification,
// failing the benchmark on any error.
func benchSparsify(b *testing.B, g *ugs.Graph, alpha float64, name string, opts ...ugs.Option) *ugs.Graph {
	b.Helper()
	sp, err := ugs.Lookup(name, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sp.Sparsify(context.Background(), g, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return res.Graph
}

// ---- Ablation benchmarks ----

// BenchmarkAblationBackbone compares the two backbone constructions feeding
// the same GDB optimizer at small α, where the paper observes the spanning
// backbone's connectivity guarantee trading against degree accuracy.
func BenchmarkAblationBackbone(b *testing.B) {
	g := benchGraph(b)
	for _, bb := range []struct {
		name string
		kind ugs.Backbone
	}{{"spanning", ugs.BackboneSpanning}, {"random", ugs.BackboneRandom}} {
		b.Run(bb.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSparsify(b, g, 0.08, "gdb", ugs.WithBackbone(bb.kind), ugs.WithSeed(int64(i)))
			}
		})
	}
}

// BenchmarkAblationHeap compares EMD's vertex-heap E-phase against the
// naive global-scan formulation (Section 4.3's cost analysis).
func BenchmarkAblationHeap(b *testing.B) {
	g := benchGraph(b)
	backbone, err := core.SpanningBackbone(g, 0.2, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		naive bool
	}{{"vertex-heap", false}, {"naive-scan", true}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := core.EMD(context.Background(), g, backbone, core.EMDOptions{
					H: 0.05, MaxRounds: 2, NaiveEPhase: v.naive,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEntropyParam sweeps h, isolating the cost/benefit of the
// entropy cap (Figure 5's design knob; runtime is roughly h-independent,
// accuracy is not). WithEntropy(0) requests a true h = 0.
func BenchmarkAblationEntropyParam(b *testing.B) {
	g := benchGraph(b)
	for _, h := range []struct {
		name string
		val  float64
	}{{"h0", 0}, {"h05", 0.05}, {"h1", 1}} {
		b.Run(h.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSparsify(b, g, 0.16, "gdb", ugs.WithEntropy(h.val), ugs.WithSeed(1))
			}
		})
	}
}

// ---- Micro-benchmarks of the hot paths ----

func BenchmarkWorldSampling(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewSource(1))
	w := ugraph.NewWorld(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SampleWorldInto(rng, w)
	}
}

// BenchmarkWorldSamplingSeeded measures the engine's per-sample primitive:
// reseed and redraw a bitset world from a deterministic stream.
func BenchmarkWorldSamplingSeeded(b *testing.B) {
	g := benchGraph(b)
	w := ugraph.NewWorld(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SampleWorldSeeded(int64(i), w)
	}
}

// BenchmarkWorldBatchSampling measures the batch engine's fill primitive
// at each lane width: fill a lane-transposed WorldBatch from VecLanes
// deterministic streams (one tile transpose per 64 edges per lane word on
// top of the raw draws).
func BenchmarkWorldBatchSampling(b *testing.B) {
	g := benchGraph(b)
	run := func(b *testing.B, fill func(seeds []int64), lanes int) {
		seeds := make([]int64, lanes)
		var next int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for l := range seeds {
				seeds[l] = next
				next++
			}
			fill(seeds)
		}
	}
	b.Run("64", func(b *testing.B) {
		wb := ugs.NewWorldBatch[ugs.Vec64](g)
		run(b, func(s []int64) { ugs.SampleWorldBatch(g, s, wb) }, 64)
	})
	b.Run("256", func(b *testing.B) {
		wb := ugs.NewWorldBatch[ugs.Vec256](g)
		run(b, func(s []int64) { ugs.SampleWorldBatch(g, s, wb) }, 256)
	})
}

func BenchmarkSparsifyGDB(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		benchSparsify(b, g, 0.16, "gdb", ugs.WithSeed(1))
	}
}

// scaledGraphs caches the large generated fixtures for the per-sweep and
// per-round microbenchmarks; generation is O(N²) and shared across
// sub-benchmarks.
var scaledGraphs = map[int]*ugs.Graph{}

// benchScaledGraph returns a Chung–Lu social graph with approximately the
// requested number of edges (average degree 20, Flickr-like probabilities).
func benchScaledGraph(b *testing.B, edges int) *ugs.Graph {
	b.Helper()
	g, ok := scaledGraphs[edges]
	if !ok {
		var err error
		g, err = ugs.GenerateSocial(ugs.SocialConfig{N: edges / 10, AvgDegree: 20, MeanProb: 0.09, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		scaledGraphs[edges] = g
	}
	return g
}

// benchScaledBackbone builds the α = 0.3 spanning backbone once per fixture.
func benchScaledBackbone(b *testing.B, g *ugs.Graph) []int {
	b.Helper()
	backbone, err := core.SpanningBackbone(g, 0.3, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return backbone
}

// BenchmarkGDBSweep measures the GDB sweep engine (tracker construction +
// sweeps to convergence + finalize) on a prebuilt backbone at |E| ≈ 10k and
// 100k, isolating the Algorithm 2 hot path from backbone construction.
// ns/visit divides the time by the sweeps' edge visits, Iterations ×
// |backbone|; the set-up and finalize around the sweeps are included.
func BenchmarkGDBSweep(b *testing.B) {
	for _, edges := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("E%dk", edges/1000), func(b *testing.B) {
			g := benchScaledGraph(b, edges)
			backbone := benchScaledBackbone(b, g)
			visits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := core.GDB(context.Background(), g, backbone, core.GDBOptions{})
				if err != nil {
					b.Fatal(err)
				}
				visits += st.EdgeVisits
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
		})
	}
}

// BenchmarkEMDRound measures two full E+M rounds of Algorithm 3 (enough to
// exercise the persistent vertex heap across rounds) at |E| ≈ 10k and 100k.
func BenchmarkEMDRound(b *testing.B) {
	for _, edges := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("E%dk", edges/1000), func(b *testing.B) {
			g := benchScaledGraph(b, edges)
			backbone := benchScaledBackbone(b, g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.EMD(context.Background(), g, backbone, core.EMDOptions{MaxRounds: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparsifyS10k times each sparsify call of the benchmark of
// record's sparsify_repair round on the same graph (bench/'s s10k: 1,000
// vertices, 9,856 edges) at α = 0.3 and seed 1, resolved through
// ugs.Lookup. It reports EMD's E+M rounds and NI's calibration runs.
func BenchmarkSparsifyS10k(b *testing.B) {
	g := benchScaledGraph(b, 10_000)
	for _, method := range []string{"gdb", "emd", "ni", "ss"} {
		b.Run(method, func(b *testing.B) {
			sp, err := ugs.Lookup(method, ugs.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			var st ugs.RunStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sp.Sparsify(context.Background(), g, 0.3)
				if err != nil {
					b.Fatal(err)
				}
				st = res.Stats
			}
			switch method {
			case "emd":
				b.ReportMetric(float64(st.Iterations), "rounds/op")
			case "ni":
				b.ReportMetric(float64(st.Iterations), "calibrations/op")
			}
		})
	}
}

// randomEditBatch draws a size-edit batch over g's edges: reweights to a
// probability in [0.05, 0.95), plus, when size ≥ 2, one delete and one
// insert at a pair absent from g, so that the structural path runs.
func randomEditBatch(rng *rand.Rand, g *ugs.Graph, size int) []ugs.EdgeEdit {
	edges := g.Edges()
	picked := make(map[int]bool, size)
	edits := make([]ugs.EdgeEdit, 0, size)
	for len(edits) < size {
		id := rng.Intn(len(edges))
		if picked[id] {
			continue
		}
		picked[id] = true
		e := edges[id]
		switch {
		case size >= 2 && len(edits) == 0:
			edits = append(edits, ugs.EdgeEdit{Op: ugs.EditDelete, U: e.U, V: e.V})
		case size >= 2 && len(edits) == 1:
			for {
				u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
				if _, exists := g.EdgeID(u, v); u != v && !exists {
					edits = append(edits, ugs.EdgeEdit{Op: ugs.EditInsert, U: u, V: v, P: 0.05 + 0.9*rng.Float64()})
					break
				}
			}
		default:
			edits = append(edits, ugs.EdgeEdit{Op: ugs.EditReweight, U: e.U, V: e.V, P: 0.05 + 0.9*rng.Float64()})
		}
	}
	return edits
}

// BenchmarkDynamicRepair times one Dynamic.Repair per op on the s100k
// fixture (α = 0.3, GDB, seed 1), each with a fresh batch of 1, 16 or 64
// edits from randomEditBatch (drawn outside the timer). The /scratch rows
// are the alternative a repair saves: apply a batch to the base graph and
// sparsify the result with GDB from scratch. visits/op counts the sweeps'
// edge visits per op.
func BenchmarkDynamicRepair(b *testing.B) {
	ctx := context.Background()
	g := benchScaledGraph(b, 100_000)
	for _, n := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%dedits", n), func(b *testing.B) {
			dyn, err := ugs.NewDynamic(ctx, g, 0.3, ugs.DynOptions{Method: ugs.MethodGDB, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100 + n)))
			visits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := randomEditBatch(rng, dyn.Graph(), n)
				b.StartTimer()
				st, err := dyn.Repair(ctx, batch)
				if err != nil {
					b.Fatal(err)
				}
				visits += st.EdgeVisits
			}
			b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
		})
		b.Run(fmt.Sprintf("%dedits/scratch", n), func(b *testing.B) {
			sp, err := ugs.Lookup("gdb", ugs.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(200 + n)))
			visits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := randomEditBatch(rng, g, n)
				b.StartTimer()
				res, err := ugs.ApplyEdits(g, batch)
				if err != nil {
					b.Fatal(err)
				}
				out, err := sp.Sparsify(ctx, res.Graph, 0.3)
				if err != nil {
					b.Fatal(err)
				}
				visits += out.Stats.EdgeVisits
			}
			b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
		})
	}
}

func BenchmarkSparsifyEMD(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		benchSparsify(b, g, 0.16, "emd", ugs.WithSeed(1))
	}
}

func BenchmarkSparsifyNI(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		benchSparsify(b, g, 0.16, "ni", ugs.WithSeed(1))
	}
}

func BenchmarkSparsifySS(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		benchSparsify(b, g, 0.16, "ss", ugs.WithSeed(1))
	}
}

func BenchmarkPageRankPerWorld(b *testing.B) {
	g := benchGraph(b)
	w := g.SampleWorld(rand.New(rand.NewSource(1)))
	ws := queries.NewWorkspace(g)
	out := make([]float64, g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.PageRank(w, 0.85, 30, out)
	}
}

func BenchmarkClusteringPerWorld(b *testing.B) {
	g := benchGraph(b)
	w := g.SampleWorld(rand.New(rand.NewSource(1)))
	ws := queries.NewWorkspace(g)
	out := make([]float64, g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.ClusteringCoefficients(w, out)
	}
}

// BenchmarkReliabilityMC times the reliability estimator over a heap graph
// and over its memory-mapped .ugsb copy. After open the engine reads the
// same CSR layout from different pages, so the two rows should match.
func BenchmarkReliabilityMC(b *testing.B) {
	g := benchGraph(b)
	pairs := ugs.RandomPairs(g.NumVertices(), 50, rand.New(rand.NewSource(1)))
	ctx := context.Background()
	for _, in := range []struct {
		name string
		g    *ugs.Graph
	}{{"heap", g}, {"mapped", openMappedCopy(b, g)}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ugs.Reliability(ctx, in.g, pairs, mc.Options{Samples: 50, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQueryEngine compares the bit-parallel 64-world batch
// engine against the scalar one-world-per-traversal path on the RL, SP and
// connectivity estimators (estimates are bit-identical, only traversal
// count differs), then the engine's other choices: lane width and
// sequential stopping.
func BenchmarkAblationQueryEngine(b *testing.B) {
	g := benchGraph(b)
	pairs := ugs.RandomPairs(g.NumVertices(), 50, rand.New(rand.NewSource(1)))
	ctx := context.Background()
	for _, v := range []struct {
		name  string
		lanes int
	}{{"batch", 0}, {"scalar", 1}} {
		opts := mc.Options{Samples: 50, Seed: 1, Lanes: v.lanes}
		b.Run("reliability/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ugs.Reliability(ctx, g, pairs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("shortestdist/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ugs.ShortestDistance(ctx, g, pairs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("connected/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ugs.ConnectedProbability(ctx, g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Wide-lane widths on a budget large enough to fill 256 lanes.
	for _, lanes := range []int{64, 256} {
		opts := mc.Options{Samples: 512, Seed: 1, Lanes: lanes}
		b.Run(fmt.Sprintf("reliability/512x%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ugs.Reliability(ctx, g, pairs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Sequential stopping against the fixed default budget of 500 samples.
	// samples/op is the number of worlds a run drew, the quantity the
	// adaptive schedule saves.
	for _, v := range []struct {
		name      string
		connected bool
		opts      mc.Options
	}{
		{"reliability/adaptive", false, mc.Options{Seed: 1, Target: mc.WithConfidence(0.1, 0.05)}},
		{"reliability/fixed", false, mc.Options{Seed: 1}},
		{"connected/adaptive", true, mc.Options{Seed: 1, Target: mc.WithConfidence(0.05, 0.05)}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var info mc.RunInfo
			var err error
			for i := 0; i < b.N; i++ {
				if v.connected {
					_, info, err = ugs.ConnectedProbabilityRun(ctx, g, v.opts)
				} else {
					_, info, err = ugs.ReliabilityRun(ctx, g, pairs, v.opts)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(info.Samples), "samples/op")
		})
	}
}

// BenchmarkAblationStratified compares plain and stratified Monte-Carlo at
// an equal sample budget (the paper's [23]-style variance-reduction
// extension; same wall-clock order, lower variance).
func BenchmarkAblationStratified(b *testing.B) {
	g := benchGraph(b)
	ctx := context.Background()
	pred := func(w *ugs.World) bool { return w.Reachable(0, g.NumVertices()-1) }
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ugs.ConnectedProbability(ctx, g, mc.Options{Samples: 200, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stratified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ugs.StratifiedProbabilityOf(ctx, g, ugs.StratifiedOptions{Samples: 200, Seed: int64(i)}, pred); err != nil {
				b.Fatal(err)
			}
		}
	})
}
