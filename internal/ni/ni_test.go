package ni

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ugs/internal/ds"
	"ugs/internal/ugraph"
)

func randomConnectedGraph(rng *rand.Rand, n int, density float64) *ugraph.Graph {
	b := ugraph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(perm[i], perm[rng.Intn(i)], 0.05+0.9*rng.Float64()); err != nil {
			panic(err)
		}
	}
	g := b.Graph()
	b2 := ugraph.NewBuilder(n)
	for _, e := range g.Edges() {
		if err := b2.AddEdge(e.U, e.V, e.P); err != nil {
			panic(err)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < density {
				if err := b2.AddEdge(u, v, 0.05+0.9*rng.Float64()); err != nil {
					panic(err)
				}
			}
		}
	}
	return b2.Graph()
}

func TestSparsifyBudgetAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, 40, 0.3)
	for _, alpha := range []float64{0.16, 0.32, 0.64} {
		out, _, err := Sparsify(context.Background(), g, alpha, Options{Seed: 7})
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		want := int(math.Round(alpha * float64(g.NumEdges())))
		if out.NumEdges() != want {
			t.Errorf("alpha=%v: %d edges, want %d", alpha, out.NumEdges(), want)
		}
		for i := 0; i < out.NumEdges(); i++ {
			p := out.Prob(i)
			if !(p > 0 && p <= 1) {
				t.Errorf("alpha=%v: probability %v outside (0,1]", alpha, p)
			}
			e := out.Edge(i)
			if !g.HasEdge(e.U, e.V) {
				t.Errorf("alpha=%v: edge (%d,%d) not in original", alpha, e.U, e.V)
			}
		}
	}
}

func TestSparsifyRedistributesProbability(t *testing.T) {
	// NI compensates sampling by inflating weights (w' = w/ℓ), so some
	// kept edges must end with higher probability than they started.
	// Probabilities may only *drop* by the quantization error of the
	// integer transform w = ⌊p/p_min⌉, which is at most p_min/2.
	rng := rand.New(rand.NewSource(2))
	g := randomConnectedGraph(rng, 50, 0.25)
	pmin := 1.0
	for _, e := range g.Edges() {
		if e.P < pmin {
			pmin = e.P
		}
	}
	out, _, err := Sparsify(context.Background(), g, 0.25, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	raised := 0
	for i := 0; i < out.NumEdges(); i++ {
		e := out.Edge(i)
		id, _ := g.EdgeID(e.U, e.V)
		if out.Prob(i) < g.Prob(id)-pmin/2-1e-9 {
			t.Errorf("edge (%d,%d): probability dropped beyond quantization error: %v -> %v",
				e.U, e.V, g.Prob(id), out.Prob(i))
		}
		if out.Prob(i) > g.Prob(id)+1e-9 {
			raised++
		}
	}
	if raised == 0 {
		t.Error("no edge probability was raised; NI redistribution absent")
	}
}

func TestNIIndexFavorsBridges(t *testing.T) {
	// Two dense cliques joined by a single bridge: the bridge has NI index
	// 1 (it appears in the first spanning forest and is immediately
	// exhausted at low weight), so it is sampled with the highest
	// probability, while intra-clique edges are exhausted late and mostly
	// dropped. The bridge must survive in (nearly) every run.
	b := ugraph.NewBuilder(20)
	addClique := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if err := b.AddEdge(u, v, 0.5); err != nil {
					panic(err)
				}
			}
		}
	}
	addClique(0, 10)
	addClique(10, 20)
	if err := b.AddEdge(9, 10, 0.5); err != nil {
		t.Fatal(err)
	}
	g := b.Graph()

	const runs = 20
	bridgeSurvived := 0
	cliqueKept := 0
	for seed := int64(0); seed < runs; seed++ {
		out, _, err := Sparsify(context.Background(), g, 0.3, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if out.HasEdge(9, 10) {
			bridgeSurvived++
			cliqueKept += out.NumEdges() - 1
		} else {
			cliqueKept += out.NumEdges()
		}
	}
	bridgeFreq := float64(bridgeSurvived) / runs
	cliqueFreq := float64(cliqueKept) / (runs * float64(g.NumEdges()-1))
	if bridgeFreq <= cliqueFreq {
		t.Errorf("bridge survival %.2f not above clique-edge survival %.2f", bridgeFreq, cliqueFreq)
	}
}

func TestSparsifyDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnectedGraph(rng, 30, 0.3)
	a, _, err := Sparsify(context.Background(), g, 0.3, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Sparsify(context.Background(), g, 0.3, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different graphs")
	}
}

func TestSparsifyTruncatesWhenCalibrationExhausted(t *testing.T) {
	// A uniform-probability clique makes every weight 1, so edges exhaust
	// in the first forests where ℓ is large: with a single calibration
	// run and a negligible θ the core overshoots the tiny budget and the
	// deterministic truncation path must still deliver exactly the target
	// edge count.
	b := ugraph.NewBuilder(20)
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			if err := b.AddEdge(u, v, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Graph()
	out, stats, err := Sparsify(context.Background(), g, 0.05, Options{Seed: 1, MaxCalibrations: 1, Theta: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Round(0.05 * float64(g.NumEdges())))
	if stats.AuxEdges <= want {
		t.Skipf("core kept only %d edges (≤ target %d); truncation not exercised", stats.AuxEdges, want)
	}
	if out.NumEdges() != want {
		t.Errorf("truncated output has %d edges, want %d", out.NumEdges(), want)
	}
	if stats.Iterations != 1 {
		t.Errorf("calibrations = %d, want 1", stats.Iterations)
	}
}

func TestSparsifyCalibrationShrinksEpsilonWhenUnderBudget(t *testing.T) {
	// A generous budget (α = 0.64) lets the downward calibration search
	// run: the final ε must not exceed the initial estimate.
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(rng, 40, 0.4)
	n := float64(g.NumVertices())
	initial := math.Sqrt(n * math.Log(n) / (0.64 * float64(g.NumEdges())))
	out, stats, err := Sparsify(context.Background(), g, 0.64, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epsilon > initial+1e-12 {
		t.Errorf("final ε %v above initial %v despite under-budget start", stats.Epsilon, initial)
	}
	if stats.AuxEdges > out.NumEdges() {
		t.Errorf("core selected %d edges, above final %d", stats.AuxEdges, out.NumEdges())
	}
}

func TestSparsifyErrors(t *testing.T) {
	g := ugraph.MustNew(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5},
		{U: 1, V: 2, P: 0.5},
	})
	for _, alpha := range []float64{0, 1, -0.5, 2} {
		if _, _, err := Sparsify(context.Background(), g, alpha, Options{}); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}

func TestSparsifyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 10+rng.Intn(25), 0.2+0.3*rng.Float64())
		alpha := 0.2 + 0.5*rng.Float64()
		out, _, err := Sparsify(context.Background(), g, alpha, Options{Seed: seed})
		if err != nil {
			return false
		}
		want := int(math.Round(alpha * float64(g.NumEdges())))
		if out.NumEdges() != want {
			return false
		}
		for i := 0; i < out.NumEdges(); i++ {
			if p := out.Prob(i); !(p > 0 && p <= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// niCore is the reference NI core: Algorithm 4 run whole for one ε, peeling
// every forest again and scanning every edge id in each round, as Sparsify
// did once per calibration before the peel order was recorded once. It
// returns the sampled edges with their rescaled weights w_e/ℓ_e.
func niCore(g *ugraph.Graph, origWeights []int, eps float64, rng *rand.Rand) map[int]float64 {
	n := g.NumVertices()
	m := g.NumEdges()
	w := make([]int, m)
	copy(w, origWeights)
	remaining := m
	logN := math.Log(float64(n))

	kept := make(map[int]float64)
	uf := ds.NewUnionFind(n)
	var prevForest, forest []int

	for r := 1; remaining > 0; r++ {
		uf.Reset()
		forest = forest[:0]
		// Contiguity: edges of the previous forest that still carry weight
		// must be offered first, then the rest in deterministic order.
		for _, id := range prevForest {
			if w[id] > 0 {
				e := g.Edge(id)
				if uf.Union(e.U, e.V) {
					forest = append(forest, id)
				}
			}
		}
		for id := 0; id < m; id++ {
			if w[id] <= 0 {
				continue
			}
			e := g.Edge(id)
			if uf.Union(e.U, e.V) {
				forest = append(forest, id)
			}
		}
		if len(forest) == 0 {
			break // isolated leftovers cannot occur, but guard anyway
		}
		for _, id := range forest {
			w[id]--
			if w[id] == 0 {
				remaining--
				le := math.Min(logN/(eps*eps*float64(r)), 1)
				if rng.Float64() < le {
					kept[id] = float64(origWeights[id]) / le
				}
			}
		}
		prevForest = append(prevForest[:0], forest...)
	}
	return kept
}

// FuzzNIPeel checks the recorded peel order, replayed for one ε, against
// the reference niCore on the same integer weights: the same edges must be
// kept with bit-equal weights. The graph (up to 48 vertices; each edge
// record is two endpoint bytes and the top two bytes of its probability's
// float64 bits, values above 1 clamped to 1 and values below 2⁻⁹ skipped so
// that no weight exceeds 512, which keeps each peel short), ε ∈ (0, 10] and
// the sampling seed all come from the input. Repeated probability bytes make
// tied weights, and the smallest probability present makes weight-1 edges.
func FuzzNIPeel(f *testing.F) {
	f.Add(uint8(6), uint16(3000), int64(1), []byte{0, 1, 0x3f, 0xe0, 1, 2, 0x3f, 0xf0, 2, 3, 0x3f, 0xd0, 3, 0, 0x3f, 0xe0, 0, 2, 0x3f, 0x80})
	f.Add(uint8(2), uint16(0), int64(-7), []byte{0, 1, 0x3f, 0xf0})
	f.Add(uint8(30), uint16(65535), int64(42), []byte{1, 9, 0x3f, 0xb0, 9, 4, 0x3f, 0xc8, 4, 17, 0x3f, 0xe8, 17, 1, 0x3f, 0x70, 1, 4, 0x3f, 0x70, 9, 17, 0x3f, 0xef})
	f.Fuzz(func(t *testing.T, nv uint8, epsBits uint16, seed int64, data []byte) {
		n := 1 + int(nv)%48
		b := ugraph.NewBuilder(n)
		for i := 0; i+4 <= len(data); i += 4 {
			u, v := int(data[i])%n, int(data[i+1])%n
			p := math.Float64frombits(uint64(data[i+2])<<56 | uint64(data[i+3])<<48)
			if p > 1 {
				p = 1
			}
			if !(p >= 1.0/512) {
				continue
			}
			_ = b.AddEdge(u, v, p) // self-loops and repeats are rejected: skip them
		}
		g := b.Graph()
		eps := 10 * (float64(epsBits) + 1) / 65536
		weights, _ := intWeights(g)
		want := niCore(g, weights, eps, rand.New(rand.NewSource(seed)))

		order, err := peel(context.Background(), g, weights)
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != g.NumEdges() {
			t.Fatalf("peel recorded %d exhaustions for %d edges", len(order), g.NumEdges())
		}
		got := sample(order, weights, math.Log(float64(n)), eps, rand.New(rand.NewSource(seed)))
		if len(got) != len(want) {
			t.Fatalf("ε = %v: kept %d edges, reference %d", eps, len(got), len(want))
		}
		for _, k := range got {
			w, ok := want[k.id]
			if !ok || math.Float64bits(w) != math.Float64bits(k.w) {
				t.Fatalf("ε = %v: edge %d kept with weight %v, reference %v (kept %v)", eps, k.id, k.w, w, ok)
			}
		}
	})
}
