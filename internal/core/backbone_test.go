package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ugs/internal/ds"
	"ugs/internal/ugraph"
)

func randomConnectedGraph(rng *rand.Rand, n int, density float64) *ugraph.Graph {
	b := ugraph.NewBuilder(n)
	// Random spanning tree first to guarantee connectivity.
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

func checkBackbone(t *testing.T, g *ugraph.Graph, backbone []int, alpha float64) {
	t.Helper()
	want := TargetEdges(g, alpha)
	if len(backbone) != want {
		t.Errorf("backbone has %d edges, want %d", len(backbone), want)
	}
	seen := map[int]bool{}
	for _, id := range backbone {
		if id < 0 || id >= g.NumEdges() {
			t.Fatalf("backbone edge id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("backbone edge id %d duplicated", id)
		}
		seen[id] = true
	}
}

func TestSpanningBackboneConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, 60, 0.2)
	for _, alpha := range []float64{0.16, 0.32, 0.64} {
		backbone, err := SpanningBackbone(g, alpha, rng)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		checkBackbone(t, g, backbone, alpha)
		// With the spanning phase included, the backbone must connect the
		// graph whenever the budget allows a spanning tree.
		if TargetEdges(g, alpha) >= g.NumVertices()-1 {
			uf := ds.NewUnionFind(g.NumVertices())
			for _, id := range backbone {
				e := g.Edge(id)
				uf.Union(e.U, e.V)
			}
			if uf.Sets() != 1 {
				t.Errorf("alpha=%v: spanning backbone disconnected (%d components)", alpha, uf.Sets())
			}
		}
	}
}

func TestSpanningBackboneDeterministicBySeed(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(2)), 40, 0.3)
	a, err := SpanningBackbone(g, 0.3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpanningBackbone(g, 0.3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("different sizes for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backbones diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRandomBackbone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 50, 0.3)
	backbone, err := RandomBackbone(g, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkBackbone(t, g, backbone, 0.25)
}

func TestRandomBackboneFavorsHighProbabilityEdges(t *testing.T) {
	// A graph with half high-probability and half low-probability edges:
	// Bernoulli backbone sampling must pick mostly high-probability ones.
	b := ugraph.NewBuilder(40)
	for i := 0; i < 20; i++ {
		if err := b.AddEdge(i, (i+1)%20, 0.95); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(20+i, 20+(i+1)%20, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Graph()
	rng := rand.New(rand.NewSource(4))
	backbone, err := RandomBackbone(g, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, id := range backbone {
		if g.Prob(id) > 0.5 {
			high++
		}
	}
	if high < 15 {
		t.Errorf("only %d of %d backbone edges are high-probability", high, len(backbone))
	}
}

func TestBackboneAlphaValidation(t *testing.T) {
	g := randomConnectedGraph(rand.New(rand.NewSource(5)), 10, 0.5)
	rng := rand.New(rand.NewSource(5))
	for _, alpha := range []float64{0, -0.1, 1, 1.5} {
		if _, err := SpanningBackbone(g, alpha, rng); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
		if _, err := RandomBackbone(g, alpha, rng); err == nil {
			t.Errorf("alpha=%v accepted by random backbone", alpha)
		}
	}
	// α so small the target rounds to zero edges.
	if _, err := SpanningBackbone(g, 1e-9, rng); err == nil {
		t.Error("α yielding zero edges accepted")
	}
}

func TestSpanningBackbonePropertySubsetAndSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 10+rng.Intn(30), 0.2+0.3*rng.Float64())
		alpha := 0.2 + 0.6*rng.Float64()
		backbone, err := SpanningBackbone(g, alpha, rng)
		if err != nil {
			return false
		}
		if len(backbone) != TargetEdges(g, alpha) {
			return false
		}
		seen := map[int]bool{}
		for _, id := range backbone {
			if id < 0 || id >= g.NumEdges() || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
