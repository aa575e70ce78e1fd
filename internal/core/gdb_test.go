package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ugs/internal/ugraph"
)

// pathWithShortcut builds the analytically solvable instance used across the
// GDB tests: a triangle 0-1-2 with all probabilities 0.5, sparsified to the
// backbone {(0,1), (1,2)}. The optimal degree-preserving assignment is
// p = 2/3 on both backbone edges with D1 = 1/3.
func pathWithShortcut() (*ugraph.Graph, []int) {
	g := ugraph.MustNew(3, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5},
		{U: 1, V: 2, P: 0.5},
		{U: 0, V: 2, P: 0.5},
	})
	return g, []int{0, 1}
}

func TestGDBConvergesToAnalyticOptimum(t *testing.T) {
	g, backbone := pathWithShortcut()
	out, stats, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, Tau: 1e-12, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEdges() != 2 {
		t.Fatalf("output has %d edges, want 2", out.NumEdges())
	}
	for id := 0; id < 2; id++ {
		if got := out.Prob(id); math.Abs(got-2.0/3.0) > 1e-4 {
			t.Errorf("edge %d probability = %v, want 2/3", id, got)
		}
	}
	if math.Abs(stats.ObjectiveD1-1.0/3.0) > 1e-4 {
		t.Errorf("D1 = %v, want 1/3", stats.ObjectiveD1)
	}
}

func TestGDBImprovesObjectiveAndEntropyPaperStyle(t *testing.T) {
	// A Figure 2-style scenario: a 4-vertex graph with 5 edges sparsified
	// to a 3-edge backbone. GDB must reduce D1 relative to the untouched
	// backbone and must not raise entropy above the original graph's.
	g := ugraph.MustNew(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.4},
		{U: 0, V: 2, P: 0.2},
		{U: 0, V: 3, P: 0.2},
		{U: 1, V: 3, P: 0.4},
		{U: 2, V: 3, P: 0.1},
	})
	backbone := []int{2, 3, 4} // edges (0,3), (1,3), (2,3)
	before, err := g.EdgeSubgraph(backbone)
	if err != nil {
		t.Fatal(err)
	}
	d1Before := sumSquares(DegreeDiscrepancies(g, before, Absolute))

	out, stats, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, Tau: 1e-12, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ObjectiveD1 >= d1Before {
		t.Errorf("GDB did not improve D1: %v -> %v", d1Before, stats.ObjectiveD1)
	}
	if out.Entropy() > g.Entropy() {
		t.Errorf("GDB raised entropy: %v -> %v", g.Entropy(), out.Entropy())
	}
	// D1 from stats must agree with an independent recomputation.
	if recomputed := sumSquares(DegreeDiscrepancies(g, out, Absolute)); math.Abs(recomputed-stats.ObjectiveD1) > 1e-9 {
		t.Errorf("stats D1 %v disagrees with recomputation %v", stats.ObjectiveD1, recomputed)
	}
}

func sumSquares(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s
}

func TestGDBObjectiveMonotoneAcrossSweeps(t *testing.T) {
	// For the absolute variant each coordinate step exactly minimizes (or
	// partially descends) a convex parabola, so D1 is non-increasing in
	// the sweep count.
	rng := rand.New(rand.NewSource(8))
	g := randomConnectedGraph(rng, 30, 0.3)
	backbone, err := SpanningBackbone(g, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for iters := 1; iters <= 6; iters++ {
		_, stats, err := GDB(context.Background(), g, backbone, GDBOptions{H: 0.05, Tau: 0, MaxIters: iters})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ObjectiveD1 > prev+1e-9 {
			t.Errorf("D1 increased at %d sweeps: %v -> %v", iters, prev, stats.ObjectiveD1)
		}
		prev = stats.ObjectiveD1
	}
}

func TestGDBEntropyParameterTradeoff(t *testing.T) {
	// Figure 5: h = 1 gives the best discrepancy but the highest entropy;
	// h = 0 blocks entropy-raising steps entirely.
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(rng, 40, 0.25)
	backbone, err := SpanningBackbone(g, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	outFull, statsFull, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, MaxIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	outZero, statsZero, err := GDB(context.Background(), g, backbone, GDBOptions{H: HZero, MaxIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if statsFull.ObjectiveD1 > statsZero.ObjectiveD1 {
		t.Errorf("h=1 D1 (%v) worse than h=0 D1 (%v)", statsFull.ObjectiveD1, statsZero.ObjectiveD1)
	}
	if outFull.Entropy() < outZero.Entropy() {
		t.Errorf("h=1 entropy (%v) below h=0 entropy (%v)", outFull.Entropy(), outZero.Entropy())
	}
}

func TestGDBH0NeverRaisesEdgeEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomConnectedGraph(rng, 25, 0.3)
	backbone, err := SpanningBackbone(g, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := GDB(context.Background(), g, backbone, GDBOptions{H: HZero, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.NumEdges(); i++ {
		e := out.Edge(i)
		id, ok := g.EdgeID(e.U, e.V)
		if !ok {
			t.Fatalf("output edge (%d,%d) missing from original", e.U, e.V)
		}
		if ugraph.EdgeEntropy(out.Prob(i)) > ugraph.EdgeEntropy(g.Prob(id))+1e-12 {
			t.Errorf("edge %d entropy rose: p %v -> %v", id, g.Prob(id), out.Prob(i))
		}
	}
}

func TestGDBCutOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 20, 0.4)
	backbone, err := SpanningBackbone(g, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, KAll} {
		out, _, err := GDB(context.Background(), g, backbone, GDBOptions{K: k, H: 0.05, MaxIters: 30})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if out.NumEdges() != len(backbone) {
			t.Errorf("k=%d: %d edges, want %d", k, out.NumEdges(), len(backbone))
		}
		for i := 0; i < out.NumEdges(); i++ {
			if p := out.Prob(i); p < 0 || p > 1 {
				t.Errorf("k=%d: probability %v outside [0,1]", k, p)
			}
		}
	}
}

func TestGDBK2PreservesCutsBetterThanKAll(t *testing.T) {
	// The k = n rule is "random probability reassignment" and should be
	// clearly worse at preserving sampled cut sizes than the k = 2 rule
	// (Table 2 / Figure 4 finding: GDB_n is by far the worst variant).
	// The instance mirrors the paper's datasets: low mean probability, so
	// the backbone has headroom to compensate (with E[p] near 0.5 even
	// p = 1 everywhere cannot absorb the eliminated mass and every rule
	// saturates identically).
	rng := rand.New(rand.NewSource(12))
	base := randomConnectedGraph(rng, 120, 0.12)
	b := ugraph.NewBuilder(base.NumVertices())
	for _, e := range base.Edges() {
		if err := b.AddEdge(e.U, e.V, 0.05+0.2*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Graph()
	backbone, err := SpanningBackbone(g, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := GDB(context.Background(), g, backbone, GDBOptions{K: 2, H: 0.05, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	outN, _, err := GDB(context.Background(), g, backbone, GDBOptions{K: KAll, H: 0.05, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	evalRng := rand.New(rand.NewSource(99))
	mae2 := MAECutDiscrepancy(g, out2, 5, 100, evalRng)
	evalRng = rand.New(rand.NewSource(99))
	maeN := MAECutDiscrepancy(g, outN, 5, 100, evalRng)
	if mae2 >= maeN {
		t.Errorf("k=2 cut MAE (%v) not better than k=n (%v)", mae2, maeN)
	}
}

func TestRelativeVsAbsoluteTargeting(t *testing.T) {
	// Relative discrepancy treats all degrees equally; absolute favors
	// hubs. Both must produce valid graphs and reduce their own objective
	// versus the raw backbone.
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(rng, 35, 0.3)
	backbone, err := SpanningBackbone(g, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := g.EdgeSubgraph(backbone)
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []Discrepancy{Absolute, Relative} {
		out, stats, err := GDB(context.Background(), g, backbone, GDBOptions{Discrepancy: dt, H: 0.5, MaxIters: 100})
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		before := sumSquares(DegreeDiscrepancies(g, raw, dt))
		if stats.ObjectiveD1 > before {
			t.Errorf("%v: D1 %v worse than raw backbone %v", dt, stats.ObjectiveD1, before)
		}
		if out.NumEdges() != len(backbone) {
			t.Errorf("%v: edge count changed", dt)
		}
	}
}

func TestGDBQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 8+rng.Intn(20), 0.2+0.4*rng.Float64())
		alpha := 0.3 + 0.5*rng.Float64()
		backbone, err := SpanningBackbone(g, alpha, rng)
		if err != nil {
			return false
		}
		out, _, err := GDB(context.Background(), g, backbone, GDBOptions{H: 0.05, MaxIters: 20})
		if err != nil {
			return false
		}
		if out.NumEdges() != len(backbone) {
			return false
		}
		for i := range backbone {
			p := out.Prob(i)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			// Output edges must exist in the original graph.
			e := out.Edge(i)
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGDBSweepsSteadyStateAllocsZero verifies the sweep engine itself —
// tracker updates, incremental objective, convergence checks — runs without
// allocating once the tracker exists. The level schedule is the caller's,
// as a Dynamic's repairs keep theirs, so no pool is involved and the check
// holds under -race too.
func TestGDBSweepsSteadyStateAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomConnectedGraph(rng, 80, 0.2)
	backbone, err := SpanningBackbone(g, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := GDBOptions{H: 0.05, MaxIters: 5}
	opts.defaults(g.NumVertices())
	tr := newTracker(g, backbone)
	var ls *levelSchedule
	if hasDegreeKernel {
		ls = new(levelSchedule)
		if !ls.build(tr, backbone, minLanesPerBlock) {
			ls = nil
		}
	}
	t.Logf("kernel schedule: %v", ls != nil)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := gdbSweepsWith(ctx, tr, backbone, opts, ls); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state GDB sweeps allocate %v times per run, want 0", allocs)
	}
}

// TestGDBSweepsPooledAllocsZero is the same check for gdbSweeps, the path
// of Sparsify's GDB, EMD's M-phases and NewDynamic, which draws its level
// schedule from levelPool: once the pool holds one, a run allocates
// nothing. The race detector drops pooled items on purpose, so the check
// is skipped under -race.
func TestGDBSweepsPooledAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items on purpose")
	}
	rng := rand.New(rand.NewSource(6))
	g := randomConnectedGraph(rng, 80, 0.2)
	backbone, err := SpanningBackbone(g, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := GDBOptions{H: 0.05, MaxIters: 5}
	opts.defaults(g.NumVertices())
	tr := newTracker(g, backbone)
	ctx := context.Background()
	if _, err := gdbSweeps(ctx, tr, backbone, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := gdbSweeps(ctx, tr, backbone, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state pooled GDB sweeps allocate %v times per run, want 0", allocs)
	}
}
