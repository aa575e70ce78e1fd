package mc

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"ugs/internal/ugraph"
)

// popCountRun tallies present (edge, lane) pairs over a full run at width V
// — an integer accumulator, so every width and worker count must agree
// exactly.
func popCountRun[V ugraph.Vec](t *testing.T, g *ugraph.Graph, opts Options) int {
	t.Helper()
	n, err := ReduceBatch(context.Background(), g, opts,
		func() struct{} { return struct{}{} },
		func() *int { return new(int) },
		func(_ int, wb *ugraph.WorldBatch[V], _ struct{}, acc *int) {
			*acc += wb.PopCount()
		},
		func(dst, src *int) { *dst += *src },
	)
	if err != nil {
		t.Fatal(err)
	}
	return *n
}

// TestReduceBatchBitIdenticalAcrossWidths is the tentpole's core oracle:
// the same (Seed, Samples) run must produce identical integer accumulations
// at 64 and 256 lanes — and for a scalar Reduce over the same stream —
// including ragged final batches at every width.
func TestReduceBatchBitIdenticalAcrossWidths(t *testing.T) {
	g := bridgedCommunities()
	for _, samples := range []int{1, 63, 64, 100, 333, 777} {
		opts := Options{Samples: samples, Seed: 11, Workers: 4}
		scalar, err := Reduce(context.Background(), g, opts,
			func() struct{} { return struct{}{} },
			func() *int { return new(int) },
			func(_ int, w *ugraph.World, _ struct{}, acc *int) { *acc += w.NumEdges() },
			func(dst, src *int) { *dst += *src },
		)
		if err != nil {
			t.Fatal(err)
		}
		w64 := popCountRun[ugraph.Vec64](t, g, opts)
		w256 := popCountRun[ugraph.Vec256](t, g, opts)
		if w64 != *scalar || w256 != *scalar {
			t.Fatalf("samples=%d: widths disagree: scalar=%d 64=%d 256=%d",
				samples, *scalar, w64, w256)
		}
	}
}

// TestReduceBatchWideLanesMatchScalarWorlds pins per-lane bit-identity at
// the widest width: lane l of the 256-lane batch starting at sample s is
// the world the scalar sampler draws for index s+l.
func TestReduceBatchWideLanesMatchScalarWorlds(t *testing.T) {
	g := bridgedCommunities()
	const samples = 300 // one full + one ragged 256-lane batch
	scalar := make([][]uint64, samples)
	err := ForEachWorld(context.Background(), g, Options{Samples: samples, Seed: 9, Workers: 4}, func(i int, w *ugraph.World) {
		scalar[i] = append([]uint64(nil), w.Words()...)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReduceBatch(context.Background(), g, Options{Samples: samples, Seed: 9, Workers: 4},
		func() *ugraph.World { return ugraph.NewWorld(g) },
		func() struct{} { return struct{}{} },
		func(start int, wb *ugraph.WorldBatch[ugraph.Vec256], w *ugraph.World, _ struct{}) {
			for l := 0; l < wb.Lanes(); l++ {
				wb.ExtractLane(l, w)
				for wi, word := range w.Words() {
					if word != scalar[start+l][wi] {
						t.Errorf("sample %d word %d: 256-lane batch %064b != scalar %064b",
							start+l, wi, word, scalar[start+l][wi])
					}
				}
			}
		},
		func(_, _ struct{}) {},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceOffsetShiftsSampleStream pins the Offset contract: a run over
// [0, n) splits exactly into a run over [0, k) and one with Offset k over
// the remaining n−k samples.
func TestReduceOffsetShiftsSampleStream(t *testing.T) {
	g := bridgedCommunities()
	count := func(samples, offset int) int {
		n, err := Reduce(context.Background(), g, Options{Samples: samples, Seed: 5, Offset: offset, Workers: 3},
			func() struct{} { return struct{}{} },
			func() *int { return new(int) },
			func(_ int, w *ugraph.World, _ struct{}, acc *int) { *acc += w.NumEdges() },
			func(dst, src *int) { *dst += *src },
		)
		if err != nil {
			t.Fatal(err)
		}
		return *n
	}
	countBatch := func(samples, offset int) int {
		return popCountRun[ugraph.Vec256](t, g, Options{Samples: samples, Seed: 5, Offset: offset, Workers: 3})
	}
	full := count(500, 0)
	if got := count(130, 0) + count(370, 130); got != full {
		t.Errorf("scalar: [0,130)+[130,500) = %d, full run = %d", got, full)
	}
	if got := countBatch(130, 0) + countBatch(370, 130); got != full {
		t.Errorf("batch: [0,130)+[130,500) = %d, full run = %d", got, full)
	}
}

// mapFillCache is a minimal FillCache for tests, counting fills vs hits.
type mapFillCache struct {
	mu     sync.Mutex
	blocks map[ugraph.FillKey][]uint64
	fills  int
	hits   int
}

func newMapFillCache() *mapFillCache {
	return &mapFillCache{blocks: map[ugraph.FillKey][]uint64{}}
}

func (c *mapFillCache) GetOrFill(key ugraph.FillKey, fill func() []uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[key]; ok {
		c.hits++
		return b
	}
	c.fills++
	b := fill()
	c.blocks[key] = b
	return b
}

// TestReduceBatchFillCacheBitIdentical verifies the cache path end to end:
// cached runs agree bit-for-bit with uncached ones at every width (the
// same 64-lane blocks serve 64- and 256-lane batches), repeat runs hit the
// cache, and ragged tails bypass it.
func TestReduceBatchFillCacheBitIdentical(t *testing.T) {
	g := bridgedCommunities()
	const samples = 300 // 4 full 64-lane blocks + a ragged 44-lane tail
	base := Options{Samples: samples, Seed: 21, Workers: 4}
	plain64 := popCountRun[ugraph.Vec64](t, g, base)
	plain256 := popCountRun[ugraph.Vec256](t, g, base)

	cache := newMapFillCache()
	cached := base
	cache64 := cached
	cache64.FillCache, cache64.FillID = cache, "g1"
	if got := popCountRun[ugraph.Vec64](t, g, cache64); got != plain64 {
		t.Fatalf("cached 64-lane run %d != plain %d", got, plain64)
	}
	if cache.fills != 4 {
		t.Fatalf("first run filled %d blocks, want 4 (ragged tail bypasses cache)", cache.fills)
	}
	if got := popCountRun[ugraph.Vec256](t, g, cache64); got != plain256 {
		t.Fatalf("cached 256-lane run %d != plain %d", got, plain256)
	}
	if cache.fills != 4 || cache.hits == 0 {
		t.Fatalf("256-lane run should reuse the 64-lane blocks: fills=%d hits=%d", cache.fills, cache.hits)
	}
}

// TestOptionsValidate pins the typed rejection of nonsensical combinations.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"negative samples", Options{Samples: -1}, ErrSampleCount},
		{"negative offset", Options{Offset: -5}, ErrSampleCount},
		{"bad lane width", Options{Lanes: 32}, ErrLaneWidth},
		{"128 lanes", Options{Lanes: 128}, ErrLaneWidth},
		{"target with lanes 1", Options{Lanes: 1, Target: WithConfidence(0.05, 0.05)}, ErrScalarTarget},
		{"eps zero", Options{Target: &Target{Eps: 0}}, ErrConfidence},
		{"eps too big", Options{Target: &Target{Eps: 1.5}}, ErrConfidence},
		{"delta out of range", Options{Target: &Target{Eps: 0.1, Delta: 1}}, ErrConfidence},
		{"min above max", Options{Target: &Target{Eps: 0.1, MinSamples: 100, MaxSamples: 10}}, ErrConfidence},
	}
	for _, c := range cases {
		if err := c.opts.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want errors.Is(err, %v)", c.name, err, c.want)
		}
	}
	good := []Options{
		{},
		{Samples: 500, Lanes: 256, Workers: 3},
		{Lanes: 1},
		{Lanes: 64, Target: WithConfidence(0.02, 0.1)},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	if _, err := Reduce(context.Background(), triangle(), Options{Samples: -3},
		func() struct{} { return struct{}{} },
		func() struct{} { return struct{}{} },
		func(int, *ugraph.World, struct{}, struct{}) {},
		func(_, _ struct{}) {},
	); !errors.Is(err, ErrSampleCount) {
		t.Errorf("Reduce with negative samples: err = %v, want ErrSampleCount", err)
	}
}

// TestParseFormatLanes round-trips the flag encoding.
func TestParseFormatLanes(t *testing.T) {
	for s, want := range map[string]int{"": 0, "auto": 0, "1": 1, "64": 64, "256": 256} {
		got, err := ParseLanes(s)
		if err != nil || got != want {
			t.Errorf("ParseLanes(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, s := range []string{"2", "128", "512", "wide", "-64"} {
		if _, err := ParseLanes(s); !errors.Is(err, ErrLaneWidth) {
			t.Errorf("ParseLanes(%q) err = %v, want ErrLaneWidth", s, err)
		}
	}
	for _, lanes := range []int{0, 1, 64, 256} {
		back, err := ParseLanes(FormatLanes(lanes))
		if err != nil || back != lanes {
			t.Errorf("round-trip %d → %q → %d, %v", lanes, FormatLanes(lanes), back, err)
		}
	}
}

// TestTargetZQuantile pins the normal quantile against known values.
func TestTargetZQuantile(t *testing.T) {
	if z := (Target{Eps: 0.1, Delta: 0.05}).Z(); math.Abs(z-1.959964) > 1e-5 {
		t.Errorf("Z(delta=0.05) = %v, want ≈1.96", z)
	}
	if z := (Target{Eps: 0.1, Delta: 0.01}).Z(); math.Abs(z-2.575829) > 1e-5 {
		t.Errorf("Z(delta=0.01) = %v, want ≈2.576", z)
	}
	ht := Target{Eps: 0.1}
	if hw := ht.HalfWidth(0, 0); !math.IsInf(hw, 1) {
		t.Errorf("HalfWidth(0,0) = %v, want +Inf", hw)
	}
	// p=0.5, n=384 is almost exactly the 0.05-eps boundary at 95%.
	if hw := ht.HalfWidth(192, 384); math.Abs(hw-0.05) > 0.001 {
		t.Errorf("HalfWidth(192, 384) = %v, want ≈0.05", hw)
	}
}

// TestRunAdaptiveSchedule pins the deterministic doubling schedule and the
// convergence bookkeeping of the sequential-stopping driver.
func TestRunAdaptiveSchedule(t *testing.T) {
	tgt := &Target{Eps: 0.05, MinSamples: 100, MaxSamples: 1000}
	var rounds [][2]int
	info, err := RunAdaptive(tgt,
		func(offset, n int) error {
			rounds = append(rounds, [2]int{offset, n})
			return nil
		},
		func(total int) bool { return total >= 400 },
	)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 100}, {100, 100}, {200, 200}}
	if len(rounds) != len(want) {
		t.Fatalf("rounds = %v, want %v", rounds, want)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("round %d = %v, want %v", i, rounds[i], want[i])
		}
	}
	if !info.Converged || info.Samples != 400 || info.Rounds != 3 {
		t.Errorf("info = %+v, want converged at 400 samples in 3 rounds", info)
	}

	// Never converging: the driver must stop at MaxSamples, clamping the
	// final round, and report Converged false.
	rounds = nil
	info, err = RunAdaptive(tgt,
		func(offset, n int) error {
			rounds = append(rounds, [2]int{offset, n})
			return nil
		},
		func(total int) bool { return false },
	)
	if err != nil {
		t.Fatal(err)
	}
	if info.Converged || info.Samples != 1000 {
		t.Errorf("info = %+v, want unconverged at the 1000-sample cap", info)
	}
	last := rounds[len(rounds)-1]
	if last[0]+last[1] != 1000 {
		t.Errorf("final round %v does not land exactly on MaxSamples", last)
	}

	// Errors propagate.
	wantErr := errors.New("boom")
	if _, err := RunAdaptive(tgt, func(int, int) error { return wantErr }, func(int) bool { return false }); !errors.Is(err, wantErr) {
		t.Errorf("RunAdaptive err = %v, want %v", err, wantErr)
	}
}
