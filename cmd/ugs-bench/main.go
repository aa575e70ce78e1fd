// Command ugs-bench runs the sparsifier and query micro-benchmark suite
// in-process and emits a JSON trajectory file with ns/op, bytes/op and
// allocs/op per benchmark. The committed BENCH_<pr>.json files form the
// perf baseline that future changes regress against; CI runs the tool in
// -quick mode (one iteration per benchmark) as a smoke test and uploads
// the JSON as an artifact.
//
// Usage:
//
//	go run ./cmd/ugs-bench -out BENCH_3.json -label "PR 3"
//	go run ./cmd/ugs-bench -quick -out bench_smoke.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ugs"
	"ugs/internal/core"
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// result is one benchmark's measurement. SamplesUsed is reported by the
// SamplesToTarget benchmarks, where the worlds actually drawn (not the
// time per draw) is the quantity under test.
type result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SamplesUsed int     `json:"samples_used,omitempty"`
}

// trajectory is the emitted file format.
type trajectory struct {
	Schema     string    `json:"schema"`
	Label      string    `json:"label,omitempty"`
	Note       string    `json:"note,omitempty"`
	Generated  time.Time `json:"generated"`
	GoVersion  string    `json:"go"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	Quick      bool      `json:"quick"`
	Benchmarks []result  `json:"benchmarks"`
}

// measure times fn until the accumulated run time reaches benchtime,
// growing the iteration count geometrically (the testing-package protocol,
// reimplemented so a zero benchtime can request exactly one iteration).
// Allocation figures come from MemStats deltas around the timed loop.
func measure(name string, benchtime time.Duration, fn func()) result {
	fn() // warm-up: JIT-free in Go, but populates caches and pools
	n := 1
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if elapsed >= benchtime || n >= 1<<24 {
			nf := float64(n)
			return result{
				Name:        name,
				Iters:       n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / nf,
				BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / nf,
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / nf,
			}
		}
		grow := 2.0
		if elapsed > 0 {
			grow = 1.2 * float64(benchtime) / float64(elapsed)
		}
		if grow < 1.5 {
			grow = 1.5
		}
		n = int(float64(n)*grow) + 1
	}
}

func main() {
	var (
		out       = flag.String("out", "BENCH.json", "output JSON file")
		benchtime = flag.Duration("benchtime", time.Second, "minimum measured time per benchmark")
		quick     = flag.Bool("quick", false, "one iteration per benchmark, small fixtures only (CI smoke)")
		label     = flag.String("label", "", "freeform label stored in the file")
		note      = flag.String("note", "", "freeform note stored in the file")
	)
	flag.Parse()
	if *quick {
		*benchtime = 0
	}

	ctx := context.Background()
	g := ugs.FlickrLike(300, 42)

	sparsify := func(method string, opts ...ugs.Option) func() {
		sp, err := ugs.Lookup(method, opts...)
		if err != nil {
			fatal(err)
		}
		return func() {
			if _, err := sp.Sparsify(ctx, g, 0.16); err != nil {
				fatal(err)
			}
		}
	}

	benches := []struct {
		name string
		fn   func()
	}{
		{"SparsifyGDB", sparsify("gdb", ugs.WithSeed(1))},
		{"SparsifyEMD", sparsify("emd", ugs.WithSeed(1))},
		{"SparsifyNI", sparsify("ni", ugs.WithSeed(1))},
		{"SparsifySS", sparsify("ss", ugs.WithSeed(1))},
	}

	// Scaled sweep/round microbenchmarks on prebuilt backbones (the
	// Algorithm 2/3 hot paths without backbone construction).
	sizes := []int{10_000}
	if !*quick {
		sizes = append(sizes, 100_000)
	}
	for _, edges := range sizes {
		sg, err := ugs.GenerateSocial(ugs.SocialConfig{N: edges / 10, AvgDegree: 20, MeanProb: 0.09, Seed: 7})
		if err != nil {
			fatal(err)
		}
		backbone, err := core.SpanningBackbone(sg, 0.3, core.BGIOptions{}, rand.New(rand.NewSource(1)))
		if err != nil {
			fatal(err)
		}
		suffix := fmt.Sprintf("/E%dk", edges/1000)
		benches = append(benches,
			struct {
				name string
				fn   func()
			}{"GDBSweep" + suffix, func() {
				if _, _, err := core.GDB(ctx, sg, backbone, core.GDBOptions{}); err != nil {
					fatal(err)
				}
			}},
			struct {
				name string
				fn   func()
			}{"EMDRound" + suffix, func() {
				if _, _, err := core.EMD(ctx, sg, backbone, core.EMDOptions{MaxRounds: 2}); err != nil {
					fatal(err)
				}
			}},
		)
	}

	// Query-side benchmarks: the Monte-Carlo sampling primitives (scalar
	// world and lane-transposed 64-world batch) and the full RL / SP /
	// connectivity estimators. Each estimator runs the default bit-parallel
	// batch engine and, as the ablation, the scalar one-world-per-traversal
	// path — bit-identical results, different speed. ReliabilityMC keeps the
	// PR 3 fixture (50 pairs, 50 samples) so trajectories stay comparable.
	w := ugraph.NewWorld(g)
	wb := ugraph.NewWorldBatch[ugraph.Vec64](g)
	seed := int64(0)
	batchSeeds := make([]int64, 64)
	pairs := ugs.RandomPairs(g.NumVertices(), 50, rand.New(rand.NewSource(1)))
	queryOpts := func(lanes int) mc.Options {
		return mc.Options{Samples: 50, Seed: 1, Lanes: lanes}
	}
	benches = append(benches,
		struct {
			name string
			fn   func()
		}{"WorldSamplingSeeded", func() {
			g.SampleWorldSeeded(seed, w)
			seed++
		}},
		struct {
			name string
			fn   func()
		}{"WorldBatchSampling", func() {
			for l := range batchSeeds {
				batchSeeds[l] = seed
				seed++
			}
			g.SampleBatchSeeded(batchSeeds, wb)
		}},
		struct {
			name string
			fn   func()
		}{"ReliabilityMC", func() {
			if _, err := ugs.Reliability(ctx, g, pairs, queryOpts(0)); err != nil {
				fatal(err)
			}
		}},
		struct {
			name string
			fn   func()
		}{"ReliabilityMC/scalar", func() {
			if _, err := ugs.Reliability(ctx, g, pairs, queryOpts(1)); err != nil {
				fatal(err)
			}
		}},
		struct {
			name string
			fn   func()
		}{"ShortestDistMC", func() {
			if _, err := ugs.ShortestDistance(ctx, g, pairs, queryOpts(0)); err != nil {
				fatal(err)
			}
		}},
		struct {
			name string
			fn   func()
		}{"ShortestDistMC/scalar", func() {
			if _, err := ugs.ShortestDistance(ctx, g, pairs, queryOpts(1)); err != nil {
				fatal(err)
			}
		}},
		struct {
			name string
			fn   func()
		}{"ConnectedMC", func() {
			if _, err := ugs.ConnectedProbability(ctx, g, queryOpts(0)); err != nil {
				fatal(err)
			}
		}},
		struct {
			name string
			fn   func()
		}{"ConnectedMC/scalar", func() {
			if _, err := ugs.ConnectedProbability(ctx, g, queryOpts(1)); err != nil {
				fatal(err)
			}
		}},
	)

	// Wide-lane benchmarks: the same estimators on a 512-sample budget at
	// both explicit engine widths. 512 samples fill 8 / 2 batches at 64 /
	// 256 lanes, so these measure how well wider vectors amortize traversal
	// control flow and per-fill gather passes. Results are bit-identical
	// across the two; only ns/op may differ.
	wideOpts := func(lanes int) mc.Options {
		return mc.Options{Samples: 512, Seed: 1, Lanes: lanes}
	}
	for _, lanes := range []int{64, 256} {
		lanes := lanes
		benches = append(benches,
			struct {
				name string
				fn   func()
			}{fmt.Sprintf("ReliabilityMC/512x%d", lanes), func() {
				if _, err := ugs.Reliability(ctx, g, pairs, wideOpts(lanes)); err != nil {
					fatal(err)
				}
			}},
			struct {
				name string
				fn   func()
			}{fmt.Sprintf("ShortestDistMC/512x%d", lanes), func() {
				if _, err := ugs.ShortestDistance(ctx, g, pairs, wideOpts(lanes)); err != nil {
					fatal(err)
				}
			}},
			struct {
				name string
				fn   func()
			}{fmt.Sprintf("ConnectedMC/512x%d", lanes), func() {
				if _, err := ugs.ConnectedProbability(ctx, g, wideOpts(lanes)); err != nil {
					fatal(err)
				}
			}},
		)
	}

	// Multi-pair benchmarks: one SP+RL query whose pair list carries many
	// distinct sources, the workload the multi-source kernels exist for.
	// With fan-out auto the engine groups up to 64 sources into one shared
	// traversal per sampled world; /persource is the FanOut:1 ablation —
	// one traversal per source at the SAME lane width, so the pair of rows
	// isolates the fan-out win from the lane win. The scalar-width rows
	// (one world per traversal, where per-arc overhead dominates) are where
	// grouping pays most. The /x64 rows run the 64-lane engine, where a
	// source with a single target is answered by a pair search instead of
	// a source traversal, so fan-out does not apply and the row and its
	// ablation run the same pair searches. Results are bit-identical
	// between each row and its ablation.
	multiPairs := func(n int) []ugs.Pair {
		nv := g.NumVertices()
		ps := make([]ugs.Pair, n)
		for i := range ps {
			ps[i] = ugs.Pair{S: i % nv, T: (i + nv/2) % nv}
		}
		return ps
	}
	multiPairBench := func(pairs []ugs.Pair, fan, lanes int) func() {
		opts := mc.Options{Samples: 64, Seed: 1, Lanes: lanes, FanOut: fan}
		return func() {
			if _, _, err := ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts); err != nil {
				fatal(err)
			}
		}
	}
	for _, np := range []int{1, 16, 256} {
		mp := multiPairs(np)
		name := fmt.Sprintf("MultiPairMC/%dpairs", np)
		benches = append(benches,
			struct {
				name string
				fn   func()
			}{name, multiPairBench(mp, 0, 1)},
			struct {
				name string
				fn   func()
			}{name + "/persource", multiPairBench(mp, 1, 1)},
		)
	}
	benches = append(benches,
		struct {
			name string
			fn   func()
		}{"MultiPairMC/256pairs/x64", multiPairBench(multiPairs(256), 0, 64)},
		struct {
			name string
			fn   func()
		}{"MultiPairMC/256pairs/x64/persource", multiPairBench(multiPairs(256), 1, 64)},
	)

	// SamplesToTarget: sequential stopping versus the fixed default budget.
	// The adaptive run samples until every pair's reliability CI half-width
	// is ≤ 0.1 at 95% confidence; the fixed run burns the default 500
	// samples regardless. samples_used in the JSON records the worlds each
	// actually drew — the adaptive acceptance number.
	samplesUsed := map[string]int{}
	benches = append(benches,
		struct {
			name string
			fn   func()
		}{"ReliabilitySamplesToTarget/adaptive", func() {
			o := mc.Options{Seed: 1, Target: mc.WithConfidence(0.1, 0.05)}
			_, info, err := ugs.ReliabilityRun(ctx, g, pairs, o)
			if err != nil {
				fatal(err)
			}
			samplesUsed["ReliabilitySamplesToTarget/adaptive"] = info.Samples
		}},
		struct {
			name string
			fn   func()
		}{"ReliabilitySamplesToTarget/fixed", func() {
			_, info, err := ugs.ReliabilityRun(ctx, g, pairs, mc.Options{Seed: 1})
			if err != nil {
				fatal(err)
			}
			samplesUsed["ReliabilitySamplesToTarget/fixed"] = info.Samples
		}},
		struct {
			name string
			fn   func()
		}{"ConnectedSamplesToTarget/adaptive", func() {
			o := mc.Options{Seed: 1, Target: mc.WithConfidence(0.05, 0.05)}
			_, info, err := ugs.ConnectedProbabilityRun(ctx, g, o)
			if err != nil {
				fatal(err)
			}
			samplesUsed["ConnectedSamplesToTarget/adaptive"] = info.Samples
		}},
	)

	// Storage benchmarks: loading the same graph from the text format
	// (parse + CSR build) versus opening its .ugsb binary as a memory
	// mapping — deep-validated and header-only — plus the reliability
	// estimator over the mapped view, which must match the heap numbers
	// (same CSR layout, different backing pages).
	storeDir, err := os.MkdirTemp("", "ugs-bench-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(storeDir)
	textPath := filepath.Join(storeDir, "g.ugs")
	binPath := filepath.Join(storeDir, "g.ugsb")
	if err := ugs.WriteGraphFile(textPath, g); err != nil {
		fatal(err)
	}
	if err := ugs.WriteBinaryGraphFile(binPath, g); err != nil {
		fatal(err)
	}
	mg, err := ugs.OpenMappedGraph(binPath)
	if err != nil {
		fatal(err)
	}
	defer mg.Close()
	benches = append(benches,
		struct {
			name string
			fn   func()
		}{"LoadText", func() {
			if _, err := ugs.ReadGraphFile(textPath); err != nil {
				fatal(err)
			}
		}},
		struct {
			name string
			fn   func()
		}{"LoadMapped", func() {
			m, err := ugs.OpenMappedGraph(binPath)
			if err != nil {
				fatal(err)
			}
			m.Close()
		}},
		struct {
			name string
			fn   func()
		}{"LoadMappedTrusted", func() {
			m, err := ugs.OpenMappedGraphTrusted(binPath)
			if err != nil {
				fatal(err)
			}
			m.Close()
		}},
		struct {
			name string
			fn   func()
		}{"ReliabilityMC/mapped", func() {
			if _, err := ugs.Reliability(ctx, mg, pairs, queryOpts(0)); err != nil {
				fatal(err)
			}
		}},
	)

	traj := trajectory{
		Schema:    "ugs-bench/1",
		Label:     *label,
		Note:      *note,
		Generated: time.Now().UTC(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     *quick,
	}
	for _, bench := range benches {
		r := measure(bench.name, *benchtime, bench.fn)
		if s, ok := samplesUsed[bench.name]; ok {
			r.SamplesUsed = s
		}
		traj.Benchmarks = append(traj.Benchmarks, r)
		fmt.Printf("%-24s %10d iters  %14.0f ns/op  %12.0f B/op  %8.0f allocs/op\n",
			r.Name, r.Iters, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}

	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ugs-bench:", err)
	os.Exit(1)
}
