package queries

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// withIsolated returns g plus one extra vertex with no edges: an endpoint
// that is isolated in every lane.
func withIsolated(g *ugraph.Graph) (*ugraph.Graph, int) {
	n := g.NumVertices()
	b := ugraph.NewBuilder(n + 1)
	for _, e := range g.Edges() {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			panic(err)
		}
	}
	return b.Graph(), n
}

// pairSearchCases is the pair list the kernel gate walks: random pairs plus
// s == t, a duplicate pair, one source with targets on both sides of the
// routing cutoff, and pairs with the isolated endpoint on either side.
func pairSearchCases(rng *rand.Rand, n, isolated int) []Pair {
	pairs := RandomPairs(n, 12, rng)
	pairs = append(pairs, Pair{S: 3, T: 3}, pairs[0], Pair{S: isolated, T: 0},
		Pair{S: 0, T: isolated}, Pair{S: isolated, T: isolated})
	for t := 0; t <= pairSearchTargets+1; t++ {
		pairs = append(pairs, Pair{S: 1, T: (2 + t) % n})
	}
	return pairs
}

// checkPairSearch gates one PairSearch, reused across every pair of two
// graphs, against MaskBFS at the target and the per-lane scalar BFS oracle:
// the reach mask and the depth sum must match both bit for bit, for a full
// batch and for ragged ones (at 256 lanes, some with whole words
// inactive), and every search must leave the kernel's state clean.
func checkPairSearch[V ugraph.Vec](t *testing.T, rng *rand.Rand, ps *PairSearch[V], trial int) {
	t.Helper()
	g, isolated := withIsolated(randomQueryGraph(rng, 10+rng.Intn(40), 0.04+0.2*rng.Float64()))
	n := g.NumVertices()
	width := ugraph.VecLanes[V]()
	for _, lanes := range []int{width, 1 + rng.Intn(width), 1 + rng.Intn(63)} {
		seeds := make([]int64, lanes)
		for l := range seeds {
			seeds[l] = rng.Int63()
		}
		wb := ugraph.NewWorldBatch[V](g)
		ugraph.SampleBatchSeeded(g, seeds, wb)
		mb := NewMaskBFS[V](n)
		bfs := NewBFS(n)
		w := ugraph.NewWorld(g)
		for _, p := range pairSearchCases(rng, n, isolated) {
			reach, depthSum := ps.Search(wb, p.S, p.T)
			assertPairSearchClean(t, ps)
			if want := mb.ReachFrom(wb, p.S)[p.T]; reach != want {
				t.Fatalf("trial %d lanes %d pair %v: reach %v != MaskBFS %v", trial, lanes, p, reach, want)
			}
			if want := mb.DepthSums()[p.T]; depthSum != want {
				t.Fatalf("trial %d lanes %d pair %v: depth sum %d != MaskBFS %d", trial, lanes, p, depthSum, want)
			}
			var wantReach V
			var wantSum int64
			for l := 0; l < lanes; l++ {
				wb.ExtractLane(l, w)
				if d := bfs.Distances(w, p.S)[p.T]; d >= 0 {
					wantReach = ugraph.VecSetBit(wantReach, l)
					wantSum += int64(d)
				}
			}
			if reach != wantReach || depthSum != wantSum {
				t.Fatalf("trial %d lanes %d pair %v: (%v, %d) != scalar oracle (%v, %d)",
					trial, lanes, p, reach, depthSum, wantReach, wantSum)
			}
		}
	}
}

// assertPairSearchClean checks the reset contract: after a search every
// vertex record is zero, so the next search (on any graph) starts clean.
func assertPairSearchClean[V ugraph.Vec](t *testing.T, ps *PairSearch[V]) {
	t.Helper()
	for v, st := range ps.state {
		if st != (pairVertex{}) {
			t.Fatalf("vertex %d left %+v behind", v, st)
		}
	}
}

func TestPairSearchMatchesMaskBFSAndScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	// One kernel per width for the whole test: reuse across pairs, batches
	// and graphs of different sizes must not leak state.
	ps64 := NewPairSearch[ugraph.Vec64](4)
	ps256 := NewPairSearch[ugraph.Vec256](4)
	for trial := 0; trial < 8; trial++ {
		checkPairSearch(t, rng, ps64, trial)
		checkPairSearch(t, rng, ps256, trial)
	}
}

// TestRoutedPairsMatchScalar is the estimator-level gate of the routing:
// one source at exactly pairSearchTargets targets runs pair searches, and
// eleven sources past it (the isolated vertex among them) run source
// traversals, so at 64 lanes fan-out 8 (and auto) runs eight of them as
// one multi-source group and the other three one source each. Every batch
// width, fan-out and worker count must return the scalar reference's
// estimates bit for bit, on full and ragged budgets.
func TestRoutedPairsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g, isolated := withIsolated(randomQueryGraph(rng, 50, 0.08))
	n := g.NumVertices()
	pairs := RandomPairs(n, 10, rng)
	for i := 0; i < pairSearchTargets; i++ {
		pairs = append(pairs, Pair{S: 5, T: 10 + i})
	}
	traversed := []int{6, 40, 41, 42, 43, 44, 45, 46, 47, 48, isolated}
	for j, s := range traversed {
		for i := 0; i <= pairSearchTargets+j%3; i++ {
			pairs = append(pairs, Pair{S: s, T: (s + 7*i + 3*j + 1) % n})
		}
	}
	pairs = append(pairs, Pair{S: 41, T: 41}, Pair{S: 42, T: isolated}, pairs[len(pairs)-1],
		Pair{S: 7, T: 7}, Pair{S: isolated, T: 1}, pairs[0])
	r := routePairs(pairs)
	if want := slices.Sorted(slices.Values(traversed)); len(r.searched) == 0 || !slices.Equal(r.sources, want) {
		t.Fatalf("route = %+v, want sources %v on traversals", r, want)
	}
	for _, samples := range []int{50, 64, 257} {
		ref := mc.Options{Samples: samples, Seed: 13, Lanes: 1}
		wantSP, wantRL, err := ShortestDistanceAndReliability(bg(), g, pairs, ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{0, ugraph.BatchLanes, ugraph.MaxBatchLanes} {
			for _, fan := range []int{0, 1, 8} {
				for _, workers := range []int{1, 4} {
					opts := mc.Options{Samples: samples, Seed: 13, Lanes: lanes, FanOut: fan, Workers: workers}
					sp, rl, err := ShortestDistanceAndReliability(bg(), g, pairs, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i := range pairs {
						spSame := sp[i] == wantSP[i] || (math.IsNaN(sp[i]) && math.IsNaN(wantSP[i]))
						if rl[i] != wantRL[i] || !spSame {
							t.Fatalf("samples=%d lanes=%d fan=%d workers=%d pair %v: (SP %v, RL %v) != scalar (%v, %v)",
								samples, lanes, fan, workers, pairs[i], sp[i], rl[i], wantSP[i], wantRL[i])
						}
					}
				}
			}
		}
	}
}

func checkPairSearchAllocs[V ugraph.Vec](t *testing.T, rng *rand.Rand, width string) {
	t.Helper()
	g := randomQueryGraph(rng, 60, 0.1)
	seeds := make([]int64, ugraph.VecLanes[V]())
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	ps := NewPairSearch[V](g.NumVertices())
	ps.Search(wb, 0, 59)
	if allocs := testing.AllocsPerRun(50, func() { ps.Search(wb, 0, 59) }); allocs != 0 {
		t.Errorf("PairSearch[%s].Search allocates %.1f per call with a warm instance, want 0", width, allocs)
	}
}

func TestPairSearchZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	checkPairSearchAllocs[ugraph.Vec64](t, rng, "64")
	checkPairSearchAllocs[ugraph.Vec256](t, rng, "256")
}

// FuzzPairSearch checks the pair search against MaskBFS at the target on
// arbitrary small graphs: edges and their raw probabilities (the top 16
// bits of a float64, so anything from subnormal to 1 − 2⁻⁸; values above 1
// are clamped to an always-present edge, and zero, negative or NaN ones are
// rejected by the builder and skipped), the pairs and the lane count all
// come from the input. One kernel per width serves every pair, so leaked
// state shows up as a mismatch.
func FuzzPairSearch(f *testing.F) {
	// Edge records (u, v, two float64 bytes) up to a 0xff byte, then pairs.
	f.Add(uint8(6), uint16(64), []byte{0, 1, 0x3f, 0xe0, 1, 2, 0x3f, 0xf0, 2, 3, 0x3f, 0xd0, 0xff, 0, 3, 0, 5, 3, 3})
	f.Add(uint8(2), uint16(1), []byte{0, 1, 0x3f, 0xf0, 0xff, 0, 1, 1, 0})
	f.Add(uint8(30), uint16(200), []byte{1, 9, 0x3f, 0xb0, 9, 4, 0x3f, 0xc8, 4, 17, 0x3f, 0xe8, 0xff, 17, 1, 0, 0, 1, 4})
	f.Fuzz(func(t *testing.T, nv uint8, lanes uint16, data []byte) {
		n := 1 + int(nv)%48
		b := ugraph.NewBuilder(n)
		i := 0
		for ; i+4 <= len(data) && data[i] != 0xff; i += 4 {
			u, v := int(data[i])%n, int(data[i+1])%n
			p := math.Float64frombits(uint64(data[i+2])<<56 | uint64(data[i+3])<<48)
			if p > 1 {
				p = 1
			}
			_ = b.AddEdge(u, v, p) // self-loops, repeats and p ∉ (0, 1] are rejected: skip them
		}
		g := b.Graph()
		var pairs []Pair
		for i++; i+2 <= len(data); i += 2 {
			pairs = append(pairs, Pair{S: int(data[i]) % n, T: int(data[i+1]) % n})
		}
		if len(pairs) == 0 {
			pairs = []Pair{{S: 0, T: n - 1}}
		}
		l := 1 + int(lanes)%ugraph.MaxBatchLanes
		fuzzPairSearch[ugraph.Vec64](t, g, pairs, 1+(l-1)%ugraph.BatchLanes)
		fuzzPairSearch[ugraph.Vec256](t, g, pairs, l)
	})
}

func fuzzPairSearch[V ugraph.Vec](t *testing.T, g *ugraph.Graph, pairs []Pair, lanes int) {
	seeds := make([]int64, lanes)
	for l := range seeds {
		seeds[l] = int64(l)*0x9e3779b9 + 1
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	ps := NewPairSearch[V](g.NumVertices())
	mb := NewMaskBFS[V](g.NumVertices())
	for _, p := range pairs {
		reach, depthSum := ps.Search(wb, p.S, p.T)
		if want := mb.ReachFrom(wb, p.S)[p.T]; reach != want {
			t.Fatalf("lanes %d pair %v: reach %v != MaskBFS %v", lanes, p, reach, want)
		}
		if want := mb.DepthSums()[p.T]; depthSum != want {
			t.Fatalf("lanes %d pair %v: depth sum %d != MaskBFS %d", lanes, p, depthSum, want)
		}
	}
}
