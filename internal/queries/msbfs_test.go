package queries

import (
	"math/rand"
	"testing"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// probeGroup draws a random source group for a multi-source trial,
// occasionally with duplicate sources — allowed by the kernel contract and
// exercised here so a slot-mixing bug cannot hide behind distinctness.
func probeGroup(rng *rand.Rand, n int) [groupFanOut]int {
	var srcs [groupFanOut]int
	for i := range srcs {
		srcs[i] = rng.Intn(n)
	}
	return srcs
}

// TestMSBFSMatchesMaskBFSPerSlot pins the multi-source kernel: every source
// slot's reach masks and depth sums must equal a dedicated single-source
// MaskBFS traversal from that slot's source, bit for bit.
func TestMSBFSMatchesMaskBFSPerSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 16; trial++ {
		g := randomQueryGraph(rng, 8+rng.Intn(40), 0.05+0.3*rng.Float64())
		n := g.NumVertices()
		seeds := make([]int64, 1+rng.Intn(ugraph.BatchLanes))
		for l := range seeds {
			seeds[l] = rng.Int63()
		}
		wb := ugraph.NewWorldBatch[ugraph.Vec64](g)
		ugraph.SampleBatchSeeded(g, seeds, wb)
		single := NewMaskBFS[ugraph.Vec64](n)
		ms := NewMSBFS(4) // deliberately smaller than the graphs: exercises growth
		for round := 0; round < 3; round++ {
			srcs := probeGroup(rng, n)
			ms.ReachFrom(wb, srcs)
			for k, src := range srcs {
				reach := single.ReachFrom(wb, src)
				depthSum := single.DepthSums()
				for v := 0; v < n; v++ {
					if ms.Reach(v, k) != reach[v] {
						t.Fatalf("trial %d round %d srcs %v slot %d vertex %d: reach %v != single-source %v",
							trial, round, srcs, k, v, ms.Reach(v, k), reach[v])
					}
					if ms.DepthSum(v, k) != depthSum[v] {
						t.Fatalf("trial %d round %d srcs %v slot %d vertex %d: depthSum %d != single-source %d",
							trial, round, srcs, k, v, ms.DepthSum(v, k), depthSum[v])
					}
				}
			}
		}
	}
}

// TestMSWorldBFSMatchesScalarBFS pins the scalar multi-source kernel: every
// slot's distances over a sampled world must equal BFS.Distances from that
// slot's source.
func TestMSWorldBFSMatchesScalarBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		g := randomQueryGraph(rng, 8+rng.Intn(40), 0.05+0.3*rng.Float64())
		n := g.NumVertices()
		w := g.SampleWorld(rng)
		ms := NewMSWorldBFS(n, 4)
		bfs := NewBFS(n)
		srcs := probeGroup(rng, n)
		ms.Run(w, srcs[:])
		for k, src := range srcs {
			dist := bfs.Distances(w, src)
			for v := 0; v < n; v++ {
				if got := ms.Dist(v, k); got != dist[v] {
					t.Fatalf("trial %d srcs %v slot %d vertex %d: dist %d != scalar BFS %d",
						trial, srcs, k, v, got, dist[v])
				}
			}
		}
	}
}

// multiPairCase builds a pair list that stresses the grouped estimators:
// several pairs sharing one source, duplicate pairs, pairs whose sources
// collide with targets, and, after the count random ones, nine sources
// with more targets than pairSearchTargets, which batch widths answer with
// source traversals beside the pair searches of the rest: at 64 lanes and
// fan-out auto or 8, one group of eight on the multi-source kernel and one
// leftover on its own.
func multiPairCase(rng *rand.Rand, n, count int) []Pair {
	pairs := RandomPairs(n, count, rng)
	if count >= 4 && n >= 3 {
		pairs[1].S = pairs[0].S                       // shared source
		pairs[2] = pairs[0]                           // duplicate pair
		pairs[3] = Pair{S: pairs[0].T, T: pairs[0].S} // reversed
	}
	for j, s := range rng.Perm(n)[:min(9, n)] {
		for i := 0; i <= pairSearchTargets+j%2; i++ {
			pairs = append(pairs, Pair{S: s, T: rng.Intn(n)})
		}
	}
	return pairs
}

// TestMultiSourceMatchesPerSource is the estimator-level contract of the
// multi-source engine: for every lane width (including scalar worlds and
// the auto plan), worker count and fan-out, grouped traversals must produce
// bit-identical per-pair SP and RL estimates to the per-source ablation
// (FanOut: 1) on the same seed — over pair lists with shared and duplicate
// sources. At batch widths the grouped traversals carry the many-target
// sources of multiPairCase; the other pairs run pair searches whatever
// the fan-out.
func TestMultiSourceMatchesPerSource(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g := randomQueryGraph(rng, 60, 0.12)
	pairs := multiPairCase(rng, g.NumVertices(), 40)

	for _, lanes := range []int{1, 0, ugraph.BatchLanes, ugraph.MaxBatchLanes} {
		var wantSP, wantRL []float64
		for _, workers := range []int{1, 8} {
			for _, fan := range []int{1, 0, 8} {
				opts := mc.Options{Samples: 130, Seed: 99, Workers: workers, Lanes: lanes, FanOut: fan}
				sp, rl, err := ShortestDistanceAndReliability(bg(), g, pairs, opts)
				if err != nil {
					t.Fatalf("lanes=%d workers=%d fan=%d: %v", lanes, workers, fan, err)
				}
				if wantSP == nil {
					wantSP, wantRL = sp, rl
					continue
				}
				for i := range pairs {
					if rl[i] != wantRL[i] {
						t.Fatalf("lanes=%d workers=%d fan=%d pair %d: RL %v != per-source %v",
							lanes, workers, fan, i, rl[i], wantRL[i])
					}
					// NaN (never-connected pair) must match as NaN.
					if sp[i] != wantSP[i] && !(sp[i] != sp[i] && wantSP[i] != wantSP[i]) {
						t.Fatalf("lanes=%d workers=%d fan=%d pair %d: SP %v != per-source %v",
							lanes, workers, fan, i, sp[i], wantSP[i])
					}
				}
			}
		}
	}
}

// TestMultiSourceAcrossWidthsIdentical pins the cross-width contract in the
// multi-source regime: results must not depend on the lane width either.
func TestMultiSourceAcrossWidthsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	g := randomQueryGraph(rng, 40, 0.15)
	pairs := multiPairCase(rng, g.NumVertices(), 24)
	var wantSP, wantRL []float64
	for _, lanes := range []int{1, ugraph.BatchLanes, ugraph.MaxBatchLanes} {
		opts := mc.Options{Samples: 257, Seed: 7, Workers: 4, Lanes: lanes, FanOut: 8}
		sp, rl, err := ShortestDistanceAndReliability(bg(), g, pairs, opts)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if wantSP == nil {
			wantSP, wantRL = sp, rl
			continue
		}
		for i := range pairs {
			if rl[i] != wantRL[i] || (sp[i] != wantSP[i] && !(sp[i] != sp[i] && wantSP[i] != wantSP[i])) {
				t.Fatalf("lanes=%d pair %d: (SP %v, RL %v) != scalar (%v, %v)",
					lanes, i, sp[i], rl[i], wantSP[i], wantRL[i])
			}
		}
	}
}

// TestAdaptiveMultiPairDeterministicAcrossFanOuts pins sequential stopping
// in the multi-source regime: the stopping decision depends only on
// accumulated per-pair counts, which are fan-out-invariant, so the adaptive
// run must take the same rounds and return bit-identical estimates for
// every fan-out and worker count.
func TestAdaptiveMultiPairDeterministicAcrossFanOuts(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	g := randomQueryGraph(rng, 50, 0.1)
	pairs := multiPairCase(rng, g.NumVertices(), 16)
	var wantSP, wantRL []float64
	var wantInfo mc.RunInfo
	first := true
	for _, workers := range []int{1, 8} {
		for _, fan := range []int{1, 0, 8} {
			opts := mc.Options{Seed: 11, Workers: workers, FanOut: fan,
				Target: mc.WithConfidence(0.05, 0.05)}
			sp, rl, info, err := ShortestDistanceAndReliabilityRun(bg(), g, pairs, opts)
			if err != nil {
				t.Fatalf("workers=%d fan=%d: %v", workers, fan, err)
			}
			if first {
				wantSP, wantRL, wantInfo = sp, rl, info
				first = false
				continue
			}
			if info != wantInfo {
				t.Fatalf("workers=%d fan=%d: run info %+v != %+v", workers, fan, info, wantInfo)
			}
			for i := range pairs {
				if rl[i] != wantRL[i] || (sp[i] != wantSP[i] && !(sp[i] != sp[i] && wantSP[i] != wantSP[i])) {
					t.Fatalf("workers=%d fan=%d pair %d: (SP %v, RL %v) != (%v, %v)",
						workers, fan, i, sp[i], rl[i], wantSP[i], wantRL[i])
				}
			}
		}
	}
}

// TestMSBFSZeroSteadyStateAllocs extends the zero-allocation guarantee to
// the multi-source kernels with warm, group-sized instances.
func TestMSBFSZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomQueryGraph(rng, 50, 0.2)
	n := g.NumVertices()
	srcs := [groupFanOut]int{0, 7, 13, 21, 34, 42, 45, 49}

	seeds := make([]int64, ugraph.BatchLanes)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[ugraph.Vec64](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	ms := NewMSBFS(n)
	ms.ReachFrom(wb, srcs)
	if allocs := testing.AllocsPerRun(50, func() { ms.ReachFrom(wb, srcs) }); allocs != 0 {
		t.Errorf("MSBFS.ReachFrom allocates %.1f per call with a warm instance, want 0", allocs)
	}

	w := g.SampleWorld(rand.New(rand.NewSource(5)))
	msw := NewMSWorldBFS(n, len(srcs))
	msw.Run(w, srcs[:])
	if allocs := testing.AllocsPerRun(50, func() { msw.Run(w, srcs[:]) }); allocs != 0 {
		t.Errorf("MSWorldBFS.Run allocates %.1f per call with a warm instance, want 0", allocs)
	}
}
