package core

// Golden tests reconstructing the paper's worked examples (Figures 2 and 3)
// numerically. The figure annotations let the Figure 2(a) graph be
// recovered exactly: the initial backbone objective D1 = 0.56 and the
// converged D1 = 0.36 both come out to the digit.

import (
	"context"
	"math"
	"testing"

	"ugs/internal/ugraph"
)

// figure2Graph reconstructs the paper's Figure 2(a) instance.
//
// Vertices u1..u4 map to 0..3. Edges (with probabilities):
//
//	(u1,u2)=0.4  (u1,u3)=0.2  (u1,u4)=0.2  (u2,u4)=0.4  (u3,u4)=0.1
//
// The bold backbone is the star at u4: {(u1,u4), (u2,u4), (u3,u4)}.
// Expected degrees: d(u1)=0.8, d(u2)=0.8, d(u3)=0.3, d(u4)=0.7, which give
// the figure's annotated backbone discrepancies δ(u1)=0.6, δ(u4)=0 and the
// worked step p'(u1,u4) = 0.2 + (0.6+0)/2 = 0.5.
func figure2Graph(t testing.TB) (g *ugraph.Graph, backbone []int) {
	t.Helper()
	g = ugraph.MustNew(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.4}, // (u1,u2)
		{U: 0, V: 2, P: 0.2}, // (u1,u3)
		{U: 0, V: 3, P: 0.2}, // (u1,u4)
		{U: 1, V: 3, P: 0.4}, // (u2,u4)
		{U: 2, V: 3, P: 0.1}, // (u3,u4)
	})
	return g, []int{2, 3, 4}
}

func TestFigure2GraphEntropyIs385(t *testing.T) {
	g, _ := figure2Graph(t)
	if got := g.Entropy(); math.Abs(got-3.855) > 0.01 {
		t.Errorf("H(G) = %.4f, want 3.85 (paper)", got)
	}
}

func TestFigure2InitialObjectiveIs056(t *testing.T) {
	g, backbone := figure2Graph(t)
	raw, err := g.EdgeSubgraph(backbone)
	if err != nil {
		t.Fatal(err)
	}
	d1 := sumSquares(DegreeDiscrepancies(g, raw, Absolute))
	if math.Abs(d1-0.56) > 1e-12 {
		t.Errorf("initial D1 = %v, want 0.56 (paper)", d1)
	}
}

func TestFigure2GDBFirstStepMatchesWorkedExample(t *testing.T) {
	// The paper's worked step: for edge (u1,u4) with δ(u1)=0.6, δ(u4)=0,
	// p' = 0.2 + (0.6+0)/2 = 0.5.
	g, backbone := figure2Graph(t)
	tr := newTracker(g, backbone)
	if d := tr.deltaA(0); math.Abs(d-0.6) > 1e-12 {
		t.Fatalf("δ(u1) = %v, want 0.6", d)
	}
	if d := tr.deltaA(3); math.Abs(d) > 1e-12 {
		t.Fatalf("δ(u4) = %v, want 0", d)
	}
	stp := tr.step(2, Absolute, 1) // edge (u1,u4)
	if math.Abs(stp-0.3) > 1e-12 {
		t.Fatalf("step = %v, want 0.3", stp)
	}
	// One sweep over just this edge applies exactly its Equation (9) update.
	opts := GDBOptions{H: 1, MaxIters: 1}
	opts.defaults(g.NumVertices())
	if _, err := gdbSweeps(context.Background(), tr, []int{2}, opts); err != nil {
		t.Fatal(err)
	}
	if p := tr.cur[2]; math.Abs(p-0.5) > 1e-12 {
		t.Errorf("p'(u1,u4) = %v, want 0.5 (paper)", p)
	}
}

func TestFigure2GDBConvergesToD1of036(t *testing.T) {
	// The analytic optimum of D1 on the star backbone is
	// p(u1,u4)=p(u2,u4)=0.5, p(u3,u4)=0, with D1 = 4·0.3² = 0.36 — the
	// exact improvement (0.56 → 0.36) the paper reports for GDB with h=1.
	g, backbone := figure2Graph(t)
	out, stats, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, Tau: 1e-14, MaxIters: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.ObjectiveD1-0.36) > 1e-6 {
		t.Errorf("converged D1 = %v, want 0.36 (paper)", stats.ObjectiveD1)
	}
	wantProbs := map[[2]int]float64{
		{0, 3}: 0.5, // (u1,u4)
		{1, 3}: 0.5, // (u2,u4)
		{2, 3}: 0.0, // (u3,u4)
	}
	for i := 0; i < out.NumEdges(); i++ {
		e := out.Edge(i)
		want, ok := wantProbs[[2]int{e.U, e.V}]
		if !ok {
			t.Fatalf("unexpected edge (%d,%d)", e.U, e.V)
		}
		if math.Abs(e.P-want) > 1e-6 {
			t.Errorf("p(%d,%d) = %v, want %v", e.U, e.V, e.P, want)
		}
	}
	// Entropy must drop from 3.85 (the paper's figure reports 2.60 for a
	// slightly different assignment; the converged optimum gives 2.0).
	if out.Entropy() >= g.Entropy() {
		t.Errorf("entropy did not drop: %v -> %v", g.Entropy(), out.Entropy())
	}
}

func TestFigure3EMDFirstSwapSelectsU1U2(t *testing.T) {
	// Figure 3, first E-phase iteration: removing (u1,u4) makes u1 the top
	// of Hv (δ=0.8); among u1's candidate edges, (u1,u2) has the highest
	// gain and enters the backbone — exactly as Figure 3(b) shows.
	g, backbone := figure2Graph(t)
	tr := newTracker(g, backbone)

	// Remove (u1,u4) as the E-phase would.
	tr.setProb(2, 0)
	tr.inBackbone[2] = false
	if d := tr.deltaA(0); math.Abs(d-0.8) > 1e-12 {
		t.Fatalf("δ(u1) after removal = %v, want 0.8 (paper's Hv top)", d)
	}

	// u1's candidates: the removed (u1,u4)=id2, (u1,u2)=id0, (u1,u3)=id1.
	_, gainU1U4 := tr.candidate(2, Absolute)
	pU1U2, gainU1U2 := tr.candidate(0, Absolute)
	_, gainU1U3 := tr.candidate(1, Absolute)
	if !(gainU1U2 > gainU1U4 && gainU1U2 > gainU1U3) {
		t.Errorf("gains (u1,u2)=%v (u1,u4)=%v (u1,u3)=%v: (u1,u2) must win",
			gainU1U2, gainU1U4, gainU1U3)
	}
	if pU1U2 <= 0 || pU1U2 > 1 {
		t.Errorf("best probability for (u1,u2) = %v", pU1U2)
	}

	// A full EMD run on the instance must strictly improve on GDB (the
	// paper reports ∆1 dropping from 1.2 to 0.2 after restructuring).
	_, gdbStats, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	emdOut, emdStats, err := EMD(context.Background(), g, backbone, EMDOptions{H: 1, MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if emdStats.ObjectiveD1 >= gdbStats.ObjectiveD1 {
		t.Errorf("EMD D1 %v not below GDB D1 %v", emdStats.ObjectiveD1, gdbStats.ObjectiveD1)
	}
	if !emdOut.HasEdge(0, 1) {
		t.Error("EMD output lacks (u1,u2), the Figure 3 swap target")
	}
}
