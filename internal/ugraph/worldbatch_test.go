package ugraph

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTranspose64MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var in, want [64]uint64
		for i := range in {
			in[i] = rng.Uint64()
		}
		for r := 0; r < 64; r++ {
			for c := 0; c < 64; c++ {
				want[c] |= (in[r] >> uint(c) & 1) << uint(r)
			}
		}
		got := in
		transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose64 mismatch", trial)
		}
		// Transposing twice is the identity.
		transpose64(&got)
		if got != in {
			t.Fatalf("trial %d: double transpose is not the identity", trial)
		}
	}
}

func randomBatchGraph(rng *rand.Rand, n int, density float64) *Graph {
	b := NewBuilder(n)
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

// checkBatchLanesBitIdentical fills a V-wide batch from the given seeds and
// verifies every lane against the scalar sampler, through both ExtractLane
// and LaneMask.
func checkBatchLanesBitIdentical[V Vec](t *testing.T, g *Graph, seeds []int64, label string) {
	t.Helper()
	b := NewWorldBatch[V](g)
	SampleBatchSeeded(g, seeds, b)
	if b.Lanes() != len(seeds) {
		t.Fatalf("%s: Lanes() = %d, want %d", label, b.Lanes(), len(seeds))
	}
	scalar := NewWorld(g)
	lane := NewWorld(g)
	for l := range seeds {
		g.SampleWorldSeeded(seeds[l], scalar)
		b.ExtractLane(l, lane)
		for wi := range scalar.bits {
			if scalar.bits[wi] != lane.bits[wi] {
				t.Fatalf("%s lane %d word %d: batch %064b != scalar %064b",
					label, l, wi, lane.bits[wi], scalar.bits[wi])
			}
		}
		for id := 0; id < g.NumEdges(); id++ {
			if got := VecBit(b.LaneMask(id), l); got != scalar.Present(id) {
				t.Fatalf("%s edge %d lane %d: batch %v scalar %v", label, id, l, got, scalar.Present(id))
			}
		}
	}
}

// TestSampleBatchSeededLanesBitIdenticalToScalarSampler is the batch
// engine's foundational contract at every width: lane l of a batch equals
// the world the scalar per-sample primitive draws from the same seed, bit
// for bit, for every edge-count residue mod 64 (full and partial final
// tiles) and for ragged lane counts (including counts that leave whole
// words of a wide vector inactive).
func TestSampleBatchSeededLanesBitIdenticalToScalarSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := map[string]struct {
		max   int
		check func(t *testing.T, g *Graph, seeds []int64, label string)
	}{
		"64":  {64, checkBatchLanesBitIdentical[Vec64]},
		"256": {256, checkBatchLanesBitIdentical[Vec256]},
	}
	for _, n := range []int{3, 9, 17, 40} {
		g := randomBatchGraph(rng, n, 0.4)
		for name, w := range widths {
			for _, lanes := range []int{1, 5, 64, 100, 130, 256} {
				if lanes > w.max {
					continue
				}
				seeds := make([]int64, lanes)
				for l := range seeds {
					seeds[l] = rng.Int63()
				}
				w.check(t, g, seeds, fmt.Sprintf("n=%d w=%s lanes=%d", n, name, lanes))
			}
		}
	}
}

func TestSampleBatchSeededInactiveLanesStayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomBatchGraph(rng, 20, 0.5)
	b := NewWorldBatch[Vec64](g)
	SampleBatchSeeded(g, []int64{1, 2, 3}, b)
	if b.ActiveMask() != (Vec64{0b111}) {
		t.Fatalf("ActiveMask = %b, want 111", b.ActiveMask())
	}
	for id, m := range b.EdgeMasks() {
		if !VecIsZero(VecAndNot(m, b.ActiveMask())) {
			t.Fatalf("edge %d has bits outside the 3 active lanes: %064b", id, m)
		}
	}
	if b.PopCount() == 0 {
		t.Fatal("batch of a dense graph sampled no edges at all (suspicious)")
	}
}

// TestSampleBatchSeededWideInactiveWordsStayZero pins the wide-width
// equivalent: a 70-lane fill of a 256-lane batch must leave words 2 and 3
// of every edge mask zero.
func TestSampleBatchSeededWideInactiveWordsStayZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomBatchGraph(rng, 20, 0.5)
	b := NewWorldBatch[Vec256](g)
	seeds := make([]int64, 70)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	SampleBatchSeeded(g, seeds, b)
	for id, m := range b.EdgeMasks() {
		if !VecIsZero(VecAndNot(m, b.ActiveMask())) {
			t.Fatalf("edge %d has bits outside the 70 active lanes: %v", id, m)
		}
	}
}

func TestSampleBatchSeededDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomBatchGraph(rng, 40, 0.3)
	b := NewWorldBatch[Vec64](g)
	seeds := make([]int64, 64)
	for l := range seeds {
		seeds[l] = int64(l + 1)
	}
	SampleBatchSeeded(g, seeds, b)
	if allocs := testing.AllocsPerRun(20, func() { SampleBatchSeeded(g, seeds, b) }); allocs != 0 {
		t.Errorf("SampleBatchSeeded allocates %.1f per call, want 0", allocs)
	}
	wide := NewWorldBatch[Vec256](g)
	wideSeeds := make([]int64, 256)
	for l := range wideSeeds {
		wideSeeds[l] = int64(l + 1)
	}
	SampleBatchSeeded(g, wideSeeds, wide)
	if allocs := testing.AllocsPerRun(20, func() { SampleBatchSeeded(g, wideSeeds, wide) }); allocs != 0 {
		t.Errorf("SampleBatchSeeded[Vec256] allocates %.1f per call, want 0", allocs)
	}
}

func TestSampleBatchSeededPanicsOnBadLaneCount(t *testing.T) {
	g := MustNew(2, []Edge{{U: 0, V: 1, P: 0.5}})
	for _, seeds := range [][]int64{nil, make([]int64, 65)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleBatchSeeded(%d seeds) did not panic", len(seeds))
				}
			}()
			SampleBatchSeeded(g, seeds, NewWorldBatch[Vec64](g))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SampleBatchSeeded[Vec256](257 seeds) did not panic")
			}
		}()
		SampleBatchSeeded(g, make([]int64, 257), NewWorldBatch[Vec256](g))
	}()
}

// TestFillBlockLoadBlocksMatchesDirectSampling is the fill-cache layout
// property: a V-wide batch is exactly len(V) consecutive 64-lane fill
// blocks, so loading blocks produced by FillBlock for consecutive seed
// groups must be bit-identical to one direct SampleBatchSeeded over the
// concatenated seeds — including ragged final blocks.
func TestFillBlockLoadBlocksMatchesDirectSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomBatchGraph(rng, 30, 0.4)
	check := func(lanes int, direct, loaded interface {
		Lanes() int
		PopCount() int
	}, masksEqual func() bool) {
		t.Helper()
		if direct.Lanes() != loaded.Lanes() {
			t.Fatalf("lanes=%d: Lanes %d != %d", lanes, loaded.Lanes(), direct.Lanes())
		}
		if !masksEqual() {
			t.Fatalf("lanes=%d: LoadBlocks masks differ from direct sampling", lanes)
		}
	}
	for _, lanes := range []int{1, 63, 64, 65, 128, 190, 256} {
		seeds := make([]int64, lanes)
		for l := range seeds {
			seeds[l] = rng.Int63()
		}
		direct := NewWorldBatch[Vec256](g)
		SampleBatchSeeded(g, seeds, direct)

		words := (lanes + BatchLanes - 1) / BatchLanes
		blocks := make([][]uint64, words)
		for k := 0; k < words; k++ {
			lo := k * BatchLanes
			hi := lo + BatchLanes
			if hi > lanes {
				hi = lanes
			}
			blocks[k] = make([]uint64, g.NumEdges())
			FillBlock(g, seeds[lo:hi], blocks[k])
		}
		loaded := NewWorldBatch[Vec256](g)
		LoadBlocks(loaded, blocks, lanes)

		check(lanes, direct, loaded, func() bool {
			dm, lm := direct.EdgeMasks(), loaded.EdgeMasks()
			for e := range dm {
				if dm[e] != lm[e] {
					return false
				}
			}
			return true
		})
	}
}

// TestLoadBlocksPanicsOnBadShape pins the guard rails of the cache-load
// path: lane counts out of range, missing blocks, wrong block lengths.
func TestLoadBlocksPanicsOnBadShape(t *testing.T) {
	g := MustNew(3, []Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}})
	good := [][]uint64{make([]uint64, 2), make([]uint64, 2)}
	for name, fn := range map[string]func(){
		"zero lanes":      func() { LoadBlocks(NewWorldBatch[Vec256](g), good, 0) },
		"too many lanes":  func() { LoadBlocks(NewWorldBatch[Vec256](g), good, 257) },
		"missing block":   func() { LoadBlocks(NewWorldBatch[Vec256](g), good[:1], 128) },
		"short block":     func() { LoadBlocks(NewWorldBatch[Vec64](g), [][]uint64{make([]uint64, 1)}, 64) },
		"fillblock seeds": func() { FillBlock(g, nil, make([]uint64, 2)) },
		"fillblock dst":   func() { FillBlock(g, []int64{1}, make([]uint64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestVecHelpers pins the word-vector primitives the kernels are written
// against.
func TestVecHelpers(t *testing.T) {
	if got := VecLanes[Vec64](); got != 64 {
		t.Errorf("VecLanes[Vec64] = %d", got)
	}
	if got := VecLanes[Vec256](); got != 256 {
		t.Errorf("VecLanes[Vec256] = %d", got)
	}
	if got := VecOnes[Vec256](70); got != (Vec256{^uint64(0), 0x3F}) {
		t.Errorf("VecOnes[Vec256](70) = %x", got)
	}
	if got := VecOnes[Vec256](256); got != (Vec256{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}) {
		t.Errorf("VecOnes[Vec256](256) = %x", got)
	}
	a := Vec256{0b1100, 0b1010}
	b := Vec256{0b1010, 0b0110}
	if got := VecAnd(a, b); got != (Vec256{0b1000, 0b0010}) {
		t.Errorf("VecAnd = %b", got)
	}
	if got := VecOr(a, b); got != (Vec256{0b1110, 0b1110}) {
		t.Errorf("VecOr = %b", got)
	}
	if got := VecAndNot(a, b); got != (Vec256{0b0100, 0b1000}) {
		t.Errorf("VecAndNot = %b", got)
	}
	if got := VecFrontier(a, b, Vec256{0b1000, 0}); got != (Vec256{0, 0b0010}) {
		t.Errorf("VecFrontier = %b", got)
	}
	if !VecIsZero(Vec256{}) || VecIsZero(Vec256{0, 0, 1, 0}) {
		t.Error("VecIsZero misclassifies")
	}
	if got := VecOnesCount(Vec256{1, 3, 7, 15}); got != 10 {
		t.Errorf("VecOnesCount = %d", got)
	}
	v := VecSetBit(Vec256{}, 200)
	if !VecBit(v, 200) || VecBit(v, 199) || VecOnesCount(v) != 1 {
		t.Errorf("VecSetBit/VecBit round-trip failed: %x", v)
	}
}
