package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ugs/internal/ugraph"
)

func TestLPAssignRecoversFullGraph(t *testing.T) {
	// With the backbone equal to the whole edge set, the LP optimum
	// reproduces the original probabilities' degree vector exactly
	// (discrepancy 0 at every vertex).
	rng := rand.New(rand.NewSource(21))
	g := randomConnectedGraph(rng, 15, 0.4)
	backbone := make([]int, g.NumEdges())
	for i := range backbone {
		backbone[i] = i
	}
	out, _, err := LPAssign(context.Background(), g, backbone, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mae := MAEDegreeDiscrepancy(g, out, Absolute); mae > 1e-6 {
		t.Errorf("full-backbone LP MAE = %v, want ≈0", mae)
	}
}

func TestLPAssignOptimalForL1(t *testing.T) {
	// LP minimizes Σ|δA| (Theorem 1), so its degree-discrepancy L1 norm
	// must never exceed GDB's on the same backbone.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 20, 0.35)
		backbone, err := SpanningBackbone(g, 0.4, rng)
		if err != nil {
			t.Fatal(err)
		}
		lpOut, _, err := LPAssign(context.Background(), g, backbone, nil)
		if err != nil {
			t.Fatal(err)
		}
		gdbOut, _, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, MaxIters: 200})
		if err != nil {
			t.Fatal(err)
		}
		lpMAE := MAEDegreeDiscrepancy(g, lpOut, Absolute)
		gdbMAE := MAEDegreeDiscrepancy(g, gdbOut, Absolute)
		if lpMAE > gdbMAE+1e-7 {
			t.Errorf("seed %d: LP MAE %v exceeds GDB MAE %v", seed, lpMAE, gdbMAE)
		}
	}
}

func TestLPAssignLemma1LegalVertices(t *testing.T) {
	// Lemma 1: there is an optimal assignment with d'_u ≤ d_u everywhere;
	// the LP formulation enforces it as a hard constraint.
	rng := rand.New(rand.NewSource(33))
	g := randomConnectedGraph(rng, 18, 0.4)
	backbone, err := SpanningBackbone(g, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := LPAssign(context.Background(), g, backbone, nil)
	if err != nil {
		t.Fatal(err)
	}
	d0 := g.ExpectedDegrees()
	d1 := out.ExpectedDegrees()
	for u := range d0 {
		if d1[u] > d0[u]+1e-6 {
			t.Errorf("vertex %d: sparsified degree %v exceeds original %v", u, d1[u], d0[u])
		}
	}
}

func TestLPAssignProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := randomConnectedGraph(rng, 16, 0.4)
	backbone, err := SpanningBackbone(g, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := LPAssign(context.Background(), g, backbone, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.NumEdges(); i++ {
		p := out.Prob(i)
		if p < -1e-9 || p > 1+1e-9 || math.IsNaN(p) {
			t.Errorf("edge %d probability %v outside [0,1]", i, p)
		}
	}
}

func TestLPAssignEmptyBackbone(t *testing.T) {
	g := ugraph.MustNew(3, []ugraph.Edge{{U: 0, V: 1, P: 0.5}})
	if _, _, err := LPAssign(context.Background(), g, nil, nil); err == nil {
		t.Error("empty backbone accepted")
	}
}
