package queries

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

func randomQueryGraph(rng *rand.Rand, n int, density float64) *ugraph.Graph {
	b := ugraph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				if err := b.AddEdge(u, v, 0.05+0.9*rng.Float64()); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.Graph()
}

// checkMaskBFSPerLane pins the traversal kernel at one width: reachability
// bits and settle-depth sums of a mask-BFS must agree with a scalar BFS run
// on each extracted lane, for full and ragged batches.
func checkMaskBFSPerLane[V ugraph.Vec](t *testing.T, rng *rand.Rand, trial int) {
	t.Helper()
	g := randomQueryGraph(rng, 8+rng.Intn(30), 0.1+0.2*rng.Float64())
	lanes := 1 + rng.Intn(ugraph.VecLanes[V]())
	seeds := make([]int64, lanes)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	mb := NewMaskBFS[V](g.NumVertices())
	bfs := NewBFS(g.NumVertices())
	w := ugraph.NewWorld(g)
	for src := 0; src < g.NumVertices(); src += 1 + g.NumVertices()/4 {
		reach := mb.ReachFrom(wb, src)
		depthSum := mb.DepthSums()
		wantReach := make([]V, g.NumVertices())
		wantDepth := make([]int64, g.NumVertices())
		for l := 0; l < lanes; l++ {
			wb.ExtractLane(l, w)
			for v, d := range bfs.Distances(w, src) {
				if d >= 0 {
					wantReach[v] = ugraph.VecSetBit(wantReach[v], l)
					wantDepth[v] += int64(d)
				}
			}
		}
		for v := range wantReach {
			if reach[v] != wantReach[v] {
				t.Fatalf("trial %d src %d vertex %d: reach %v != scalar %v",
					trial, src, v, reach[v], wantReach[v])
			}
			if depthSum[v] != wantDepth[v] {
				t.Fatalf("trial %d src %d vertex %d: depthSum %d != scalar %d",
					trial, src, v, depthSum[v], wantDepth[v])
			}
		}
	}
}

func TestMaskBFSMatchesScalarBFSPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		checkMaskBFSPerLane[ugraph.Vec64](t, rng, trial)
		checkMaskBFSPerLane[ugraph.Vec256](t, rng, trial)
	}
}

// Outcomes of ConnectedLanes' stranded-vertex screen on one batch.
const (
	allStranded  = iota // every active lane has a vertex with no present edge
	someStranded        // some lanes do, and the traversal settles the rest
	noneStranded        // no lane does: the traversal settles every lane
)

// connectivityGraph draws one of the graph shapes that drive the screen
// through each of its outcomes.
func connectivityGraph(rng *rand.Rand, shape int) *ugraph.Graph {
	addEdge := func(b *ugraph.Builder, u, v int, p float64) {
		if err := b.AddEdge(u, v, p); err != nil {
			panic(err)
		}
	}
	switch shape % 6 {
	case 0: // sparse, mixed probabilities
		return randomQueryGraph(rng, 5+rng.Intn(20), 0.3)
	case 1: // two likely cliques joined by an unlikely bridge
		k := 3 + rng.Intn(3)
		b := ugraph.NewBuilder(2 * k)
		for c := 0; c < 2; c++ {
			for u := 0; u < k; u++ {
				for v := u + 1; v < k; v++ {
					addEdge(b, c*k+u, c*k+v, 0.7+0.3*rng.Float64())
				}
			}
		}
		addEdge(b, 0, k, 0.3)
		return b.Graph()
	case 2: // a complete graph at p = 1
		n := 2 + rng.Intn(7)
		b := ugraph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				addEdge(b, u, v, 1)
			}
		}
		return b.Graph()
	case 3: // a degree-0 vertex
		n := 3 + rng.Intn(10)
		b := ugraph.NewBuilder(n)
		for u := 0; u < n-1; u++ {
			for v := u + 1; v < n-1; v++ {
				addEdge(b, u, v, 0.5+0.5*rng.Float64())
			}
		}
		return b.Graph()
	case 4: // one vertex
		return ugraph.NewBuilder(1).Graph()
	default: // two vertices, one edge
		b := ugraph.NewBuilder(2)
		addEdge(b, 0, 1, rng.Float64())
		return b.Graph()
	}
}

// checkConnectedLanes compares ConnectedLanes with a scalar BFS.Connected
// on every extracted lane and reports which outcome of the screen the
// batch took. One MaskBFS serves every call, so it also re-sizes across
// graphs of different vertex counts.
func checkConnectedLanes[V ugraph.Vec](t *testing.T, mb *MaskBFS[V], g *ugraph.Graph, lanes int, seed int64) int {
	t.Helper()
	seeds := make([]int64, lanes)
	for l := range seeds {
		seeds[l] = seed + int64(l)*0x9e3779b9
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	got := mb.ConnectedLanes(wb)
	bfs := NewBFS(g.NumVertices())
	w := ugraph.NewWorld(g)
	var want V
	stranded := 0
	for l := 0; l < lanes; l++ {
		wb.ExtractLane(l, w)
		if bfs.Connected(w) {
			want = ugraph.VecSetBit(want, l)
		}
		deg := make([]int, g.NumVertices())
		w.ForEachPresent(func(id int) {
			e := g.Edge(id)
			deg[e.U]++
			deg[e.V]++
		})
		if g.NumVertices() > 1 && slices.Contains(deg, 0) {
			stranded++
		}
	}
	if got != want {
		t.Fatalf("n=%d m=%d lanes=%d: ConnectedLanes %v != scalar %v", g.NumVertices(), g.NumEdges(), lanes, got, want)
	}
	switch stranded {
	case lanes:
		return allStranded
	case 0:
		return noneStranded
	}
	return someStranded
}

// TestMaskBFSConnectedLanesMatchesScalar pins ConnectedLanes to the scalar
// BFS.Connected per lane at both widths, over graphs that reach every
// outcome of the stranded-vertex screen (every lane stranded; some, with
// the traversal settling the rest; none), a degree-0 vertex, one and two
// vertices, and ragged lane counts, including whole inactive words at 256
// lanes. It fails if some outcome never occurred.
func TestMaskBFSConnectedLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var outcomes [2][3]int
	mb64, mb256 := NewMaskBFS[ugraph.Vec64](1), NewMaskBFS[ugraph.Vec256](1)
	for trial := 0; trial < 72; trial++ {
		g := connectivityGraph(rng, trial)
		seed := rng.Int63()
		outcomes[0][checkConnectedLanes(t, mb64, g, 1+rng.Intn(ugraph.BatchLanes), seed)]++
		outcomes[1][checkConnectedLanes(t, mb256, g, []int{1, 63, 64, 65, 130, 192, 200, 256}[trial%8], seed)]++
	}
	t.Logf("outcomes (all, some, none stranded): 64 lanes %v, 256 lanes %v", outcomes[0], outcomes[1])
	for w, width := range []string{"64", "256"} {
		for o, name := range []string{"every lane stranded", "some lanes stranded", "no lane stranded"} {
			if outcomes[w][o] == 0 {
				t.Errorf("%s lanes: no batch with %s (outcomes %v)", width, name, outcomes[w])
			}
		}
	}
}

// FuzzConnectedLanes checks ConnectedLanes against a per-lane scalar
// BFS.Connected on random small graphs with raw edge probabilities and
// random lane counts, at both widths.
func FuzzConnectedLanes(f *testing.F) {
	// Edge records: u, v and the two high bytes of a float64 probability.
	f.Add(uint8(6), uint16(64), []byte{0, 1, 0x3f, 0xe0, 1, 2, 0x3f, 0xf0, 2, 3, 0x3f, 0xd0, 3, 4, 0x3f, 0xf0, 4, 5, 0x3f, 0xe8})
	f.Add(uint8(1), uint16(1), []byte{0, 1, 0x3f, 0xf0})
	f.Add(uint8(3), uint16(200), []byte{0, 1, 0x3f, 0xf0, 1, 2, 0x3f, 0xf0, 0, 2, 0x3f, 0xe0})
	f.Fuzz(func(t *testing.T, nv uint8, lanes uint16, data []byte) {
		n := 1 + int(nv)%48
		b := ugraph.NewBuilder(n)
		for i := 0; i+4 <= len(data); i += 4 {
			u, v := int(data[i])%n, int(data[i+1])%n
			p := math.Float64frombits(uint64(data[i+2])<<56 | uint64(data[i+3])<<48)
			if p > 1 {
				p = 1
			}
			_ = b.AddEdge(u, v, p) // self-loops, repeats and p ∉ (0, 1] are rejected: skip them
		}
		g := b.Graph()
		l := 1 + int(lanes)%ugraph.MaxBatchLanes
		checkConnectedLanes(t, NewMaskBFS[ugraph.Vec64](n), g, 1+(l-1)%ugraph.BatchLanes, 1)
		checkConnectedLanes(t, NewMaskBFS[ugraph.Vec256](n), g, l, 1)
	})
}

func checkMaskBFSAllocs[V ugraph.Vec](t *testing.T, rng *rand.Rand, width string) {
	t.Helper()
	g := randomQueryGraph(rng, 50, 0.2)
	seeds := make([]int64, ugraph.VecLanes[V]())
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	mb := NewMaskBFS[V](g.NumVertices())
	mb.ReachFrom(wb, 0)
	for name, fn := range map[string]func(){
		"ReachFrom":      func() { mb.ReachFrom(wb, 0) },
		"ConnectedLanes": func() { mb.ConnectedLanes(wb) },
	} {
		if allocs := testing.AllocsPerRun(50, fn); allocs != 0 {
			t.Errorf("%s[%s] allocates %.1f per call with a warm MaskBFS, want 0", name, width, allocs)
		}
	}
}

func TestMaskBFSZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checkMaskBFSAllocs[ugraph.Vec64](t, rng, "64")
	checkMaskBFSAllocs[ugraph.Vec256](t, rng, "256")
}

// TestBatchScalarEquivalence is the engine-level contract of the PR: every
// mask-BFS batch width (64, 256 and the auto-planned one) and the
// per-world scalar path must produce bit-identical estimates for
// Reliability, ShortestDistance and ConnectedProbability on the same seeds,
// across worker counts and for sample counts not divisible by the lane
// width (ragged final batch).
func TestBatchScalarEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomQueryGraph(rng, 40, 0.12)
	pairs := RandomPairs(g.NumVertices(), 25, rng)
	for _, samples := range []int{1, 2, 4, 8, 50, 64, 100, 130, 257} {
		for _, workers := range []int{1, 8} {
			scalar := mc.Options{Samples: samples, Seed: 77, Workers: workers, Lanes: 1}
			rlS, err := Reliability(bg(), g, pairs, scalar)
			if err != nil {
				t.Fatal(err)
			}
			spS, rlS2, err := ShortestDistanceAndReliability(bg(), g, pairs, scalar)
			if err != nil {
				t.Fatal(err)
			}
			cpS, err := ConnectedProbability(bg(), g, scalar)
			if err != nil {
				t.Fatal(err)
			}
			for _, lanes := range []int{0, 64, 256} {
				base := mc.Options{Samples: samples, Seed: 77, Workers: workers, Lanes: lanes}

				rlB, err := Reliability(bg(), g, pairs, base)
				if err != nil {
					t.Fatal(err)
				}
				spB, rlB2, err := ShortestDistanceAndReliability(bg(), g, pairs, base)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pairs {
					if rlB[i] != rlS[i] || rlB2[i] != rlS2[i] {
						t.Fatalf("samples=%d workers=%d lanes=%d pair %d: RL batch %v/%v != scalar %v/%v",
							samples, workers, lanes, i, rlB[i], rlB2[i], rlS[i], rlS2[i])
					}
					spSame := spB[i] == spS[i] || (math.IsNaN(spB[i]) && math.IsNaN(spS[i]))
					if !spSame {
						t.Fatalf("samples=%d workers=%d lanes=%d pair %d: SP batch %v != scalar %v",
							samples, workers, lanes, i, spB[i], spS[i])
					}
				}

				cpB, err := ConnectedProbability(bg(), g, base)
				if err != nil {
					t.Fatal(err)
				}
				if cpB != cpS {
					t.Fatalf("samples=%d workers=%d lanes=%d: ConnectedProbability batch %v != scalar %v",
						samples, workers, lanes, cpB, cpS)
				}
			}
		}
	}
}

// TestBatchEstimatorsBitIdenticalAcrossWorkers pins determinism of the
// batch path on its own: same seed, any Workers, identical floats.
func TestBatchEstimatorsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomQueryGraph(rng, 35, 0.15)
	pairs := RandomPairs(g.NumVertices(), 12, rng)
	opts := func(workers int) mc.Options {
		return mc.Options{Samples: 650, Seed: 5, Workers: workers} // 11 batches, ragged tail
	}
	spRef, rlRef, err := ShortestDistanceAndReliability(bg(), g, pairs, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	cpRef, err := ConnectedProbability(bg(), g, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		sp, rl, err := ShortestDistanceAndReliability(bg(), g, pairs, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := range spRef {
			spSame := sp[i] == spRef[i] || (math.IsNaN(sp[i]) && math.IsNaN(spRef[i]))
			if !spSame || rl[i] != rlRef[i] {
				t.Fatalf("Workers=%d pair %d: (SP=%v RL=%v) != (SP=%v RL=%v)",
					workers, i, sp[i], rl[i], spRef[i], rlRef[i])
			}
		}
		cp, err := ConnectedProbability(bg(), g, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if cp != cpRef {
			t.Fatalf("Workers=%d: ConnectedProbability %v != %v", workers, cp, cpRef)
		}
	}
}

// TestRandomPairsDistinctEndpoints pins the no-self-pair guarantee down to
// the smallest legal vertex count, where a buggy shift would collide.
func TestRandomPairsDistinctEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 3, 10} {
		for _, p := range RandomPairs(n, 2000, rng) {
			if p.S == p.T {
				t.Fatalf("n=%d: self-pair (%d,%d)", n, p.S, p.T)
			}
			if p.S < 0 || p.S >= n || p.T < 0 || p.T >= n {
				t.Fatalf("n=%d: endpoint out of range (%d,%d)", n, p.S, p.T)
			}
		}
	}
	// n=2 must produce both orientations, nothing else.
	seen := map[Pair]bool{}
	for _, p := range RandomPairs(2, 200, rng) {
		seen[p] = true
	}
	if !seen[Pair{S: 0, T: 1}] || !seen[Pair{S: 1, T: 0}] || len(seen) != 2 {
		t.Fatalf("n=2 pair support = %v, want exactly {(0,1),(1,0)}", seen)
	}
	// Too few vertices for distinct endpoints must fail loudly, not emit
	// self-pairs.
	defer func() {
		if recover() == nil {
			t.Error("RandomPairs(1, 1) did not panic")
		}
	}()
	RandomPairs(1, 1, rng)
}

// checkSpecializedMatchesGeneric replays the generic runLevels reference on
// the exact state ReachFrom hands its width-specialized kernel and demands
// bit-identical reach masks and depth sums. ReachFrom's scalar-local level
// loops (maskbfs_wide.go) exist purely for speed; any semantic drift from
// the generic loop is a bug this catches directly, without routing through
// the scalar-BFS oracle.
func checkSpecializedMatchesGeneric[V ugraph.Vec](t *testing.T, rng *rand.Rand, trial int) {
	t.Helper()
	g := randomQueryGraph(rng, 8+rng.Intn(40), 0.05+0.3*rng.Float64())
	lanes := 1 + rng.Intn(ugraph.VecLanes[V]())
	seeds := make([]int64, lanes)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	fast := NewMaskBFS[V](g.NumVertices())
	ref := NewMaskBFS[V](g.NumVertices())
	for src := 0; src < g.NumVertices(); src += 1 + g.NumVertices()/3 {
		gotReach := fast.ReachFrom(wb, src)
		off := ref.start(wb, src)
		ref.runLevels(off)
		for v := range gotReach {
			if gotReach[v] != ref.reach[v] {
				t.Fatalf("trial %d src %d vertex %d: specialized reach %v != generic %v",
					trial, src, v, gotReach[v], ref.reach[v])
			}
			if fast.depthSum[v] != ref.depthSum[v] {
				t.Fatalf("trial %d src %d vertex %d: specialized depthSum %d != generic %d",
					trial, src, v, fast.depthSum[v], ref.depthSum[v])
			}
		}
	}
}

func TestMaskBFSSpecializedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 10; trial++ {
		checkSpecializedMatchesGeneric[ugraph.Vec64](t, rng, trial)
		checkSpecializedMatchesGeneric[ugraph.Vec256](t, rng, trial)
	}
}
