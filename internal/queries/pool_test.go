package queries

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// blockCache is a minimal concurrent ugraph.FillCache for tests.
type blockCache struct {
	mu     sync.Mutex
	blocks map[ugraph.FillKey][]uint64
}

func newBlockCache() *blockCache { return &blockCache{blocks: map[ugraph.FillKey][]uint64{}} }

func (c *blockCache) GetOrFill(key ugraph.FillKey, fill func() []uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[key]; ok {
		return b
	}
	b := fill()
	c.blocks[key] = b
	return b
}

// likelyGraph builds an n-vertex graph with edge density density and edge
// probabilities in [pmin, 1): likely enough that connectivity reads
// neither 0 nor 1, so the screen leaves lanes to the traversal.
func likelyGraph(rng *rand.Rand, n int, density, pmin float64) *ugraph.Graph {
	b := ugraph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				if err := b.AddEdge(u, v, pmin+(1-pmin)*rng.Float64()); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.Graph()
}

// recyclingPairs mixes pairs that run pair searches (one target per
// source) with sources of five targets each, which run source traversals:
// eight of them, so 64-lane runs group them on the multi-source kernel
// and 256-lane runs take one mask-BFS each.
func recyclingPairs(rng *rand.Rand, n int) []Pair {
	pairs := RandomPairs(n, 6, rng)
	for _, s := range rng.Perm(n)[:8] {
		for range 5 {
			pairs = append(pairs, Pair{S: s, T: rng.Intn(n)})
		}
	}
	return pairs
}

// TestPooledStateAcrossGraphs interleaves reliability and connectivity runs
// on two graphs of different |V| and |E|, one heap-backed and one mapped,
// at 64 and 256 lanes and Workers 1 and 4, with and without a fill cache.
// Every run draws world batches and kernels that a run on the other graph
// or at the other kind returned to the pools, so a kernel sized for the
// wrong graph, an arc table still bound to an old gather or a batch still
// holding old masks would show here. Each run must match the scalar
// reference (Lanes: 1) bit for bit.
func TestPooledStateAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	heap := likelyGraph(rng, 48, 0.12, 0.35)
	path := filepath.Join(t.TempDir(), "small.ugsb")
	if err := ugraph.WriteBinaryFile(path, likelyGraph(rng, 17, 0.4, 0.3)); err != nil {
		t.Fatal(err)
	}
	mapped, err := ugraph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	if heap.NumVertices() == mapped.NumVertices() || heap.NumEdges() == mapped.NumEdges() {
		t.Fatalf("graphs must differ in |V| and |E|: %d/%d vs %d/%d",
			heap.NumVertices(), heap.NumEdges(), mapped.NumVertices(), mapped.NumEdges())
	}
	type fixture struct {
		name  string
		g     *ugraph.Graph
		pairs []Pair
		rl    []float64
		sp    []float64
		conn  float64
	}
	fixtures := []*fixture{
		{name: "heap", g: heap, pairs: recyclingPairs(rng, heap.NumVertices())},
		{name: "mapped", g: mapped, pairs: recyclingPairs(rng, mapped.NumVertices())},
	}
	const samples = 300 // ragged at both widths: 4×64+44 and 256+44
	for _, f := range fixtures {
		ref := mc.Options{Samples: samples, Seed: 13, Lanes: 1}
		if f.sp, f.rl, err = ShortestDistanceAndReliability(bg(), f.g, f.pairs, ref); err != nil {
			t.Fatal(err)
		}
		if f.conn, err = ConnectedProbability(bg(), f.g, ref); err != nil {
			t.Fatal(err)
		}
		if f.conn == 0 || f.conn == 1 {
			t.Fatalf("%s: Pr[connected] = %v, want a graph the traversal must settle", f.name, f.conn)
		}
	}
	cache := newBlockCache()
	for round := 0; round < 2; round++ {
		for _, lanes := range []int{64, 256} {
			for _, workers := range []int{1, 4} {
				for _, f := range fixtures {
					opts := mc.Options{Samples: samples, Seed: 13, Lanes: lanes, Workers: workers}
					if round == 1 {
						opts.FillCache, opts.FillID = cache, f.name
					}
					sp, rl, err := ShortestDistanceAndReliability(bg(), f.g, f.pairs, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i := range f.pairs {
						spSame := sp[i] == f.sp[i] || (math.IsNaN(sp[i]) && math.IsNaN(f.sp[i]))
						if rl[i] != f.rl[i] || !spSame {
							t.Fatalf("%s round %d lanes %d workers %d pair %v: (SP %v, RL %v) != scalar (SP %v, RL %v)",
								f.name, round, lanes, workers, f.pairs[i], sp[i], rl[i], f.sp[i], f.rl[i])
						}
					}
					conn, err := ConnectedProbability(bg(), f.g, opts)
					if err != nil {
						t.Fatal(err)
					}
					if conn != f.conn {
						t.Fatalf("%s round %d lanes %d workers %d: Pr[connected] %v != scalar %v",
							f.name, round, lanes, workers, conn, f.conn)
					}
				}
			}
		}
	}
}

// TestWarmRunsAllocateLittle guards the pooled worker state: once warm, a
// 64-sample reliability or connectivity run on the s10k graph, without a
// fill cache, allocates on average less than one 64-lane world batch
// (|E|×8 bytes). Allocating the batch, the arc table and the kernels per
// run costs about 0.5 MB. The race detector drops pooled items on purpose,
// so the guard is skipped under -race.
func TestWarmRunsAllocateLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items on purpose")
	}
	g, err := socialGraph(1000)()
	if err != nil {
		t.Fatal(err)
	}
	pairs := RandomPairs(g.NumVertices(), 4, rand.New(rand.NewSource(5)))
	bound := uint64(g.NumEdges()) * 8
	seed := int64(0)
	for _, q := range []struct {
		name string
		run  func(opts mc.Options) error
	}{
		{"reliability", func(opts mc.Options) error { _, err := Reliability(bg(), g, pairs, opts); return err }},
		{"connectivity", func(opts mc.Options) error { _, err := ConnectedProbability(bg(), g, opts); return err }},
	} {
		run := func() {
			seed++
			if err := q.run(mc.Options{Samples: 64, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per warm run (bound %d)", q.name, perRun, bound)
		if perRun >= bound {
			t.Errorf("%s: warm runs allocate %d bytes each, want < |E|×8 = %d", q.name, perRun, bound)
		}
	}
}
