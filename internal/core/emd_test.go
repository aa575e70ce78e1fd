package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// starWithWeakLink builds an instance where a structural swap is clearly
// beneficial: a hub 0 with three strong spokes plus one weak leaf-leaf edge.
// A backbone holding the weak edge instead of a spoke leaves a whole spoke's
// probability mass unaccounted for, which EMD can fix by swapping.
func starWithWeakLink() (*ugraph.Graph, []int) {
	g := ugraph.MustNew(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.9}, // 0
		{U: 0, V: 2, P: 0.9}, // 1
		{U: 0, V: 3, P: 0.9}, // 2
		{U: 1, V: 2, P: 0.1}, // 3
	})
	return g, []int{0, 3} // spoke (0,1) and the weak link (1,2)
}

func TestEMDSwapsImproveOverGDB(t *testing.T) {
	g, backbone := starWithWeakLink()
	gdbOut, gdbStats, err := GDB(context.Background(), g, backbone, GDBOptions{H: 1, MaxIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	emdOut, emdStats, err := EMD(context.Background(), g, backbone, EMDOptions{H: 1, MaxRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if emdStats.Swaps == 0 {
		t.Error("EMD performed no swaps on an instance built to require one")
	}
	if emdOut.NumEdges() != len(backbone) {
		t.Errorf("EMD changed edge count: %d", emdOut.NumEdges())
	}
	if emdStats.ObjectiveD1 >= gdbStats.ObjectiveD1 {
		t.Errorf("EMD D1 (%v) not better than GDB D1 (%v)", emdStats.ObjectiveD1, gdbStats.ObjectiveD1)
	}
	_ = gdbOut
	// The optimal 2-edge structure keeps two strong spokes and drops the
	// weak leaf-leaf edge (retaining it strands a full unit of hub mass,
	// while keeping vertex 3's 0.9 discrepancy costs less than 1.0 at
	// vertex 2 would). EMD must discover that swap.
	if emdOut.HasEdge(1, 2) {
		t.Error("EMD retained the weak (1,2) edge")
	}
	if !emdOut.HasEdge(0, 2) {
		t.Error("EMD did not swap in spoke (0,2)")
	}
}

func TestEMDPreservesEdgeCountAndValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 8+rng.Intn(16), 0.25+0.35*rng.Float64())
		alpha := 0.3 + 0.4*rng.Float64()
		backbone, err := SpanningBackbone(g, alpha, rng)
		if err != nil {
			return false
		}
		out, _, err := EMD(context.Background(), g, backbone, EMDOptions{H: 0.05, MaxRounds: 5})
		if err != nil {
			return false
		}
		if out.NumEdges() != len(backbone) {
			return false
		}
		for i := 0; i < out.NumEdges(); i++ {
			p := out.Prob(i)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			e := out.Edge(i)
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEMDGenerallyBeatsGDBOnDegreeMAE(t *testing.T) {
	// Paper, Table 2: EMD improves on the corresponding GDB variant by
	// restructuring the backbone (for moderate/large α). Tested in
	// aggregate over several random graphs to avoid flakiness on any
	// single instance.
	wins, total := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng, 40, 0.25)
		backbone, err := SpanningBackbone(g, 0.4, rng)
		if err != nil {
			t.Fatal(err)
		}
		gdbOut, _, err := GDB(context.Background(), g, backbone, GDBOptions{H: 0.05, MaxIters: 100})
		if err != nil {
			t.Fatal(err)
		}
		emdOut, _, err := EMD(context.Background(), g, backbone, EMDOptions{H: 0.05, MaxRounds: 15})
		if err != nil {
			t.Fatal(err)
		}
		gdbMAE := MAEDegreeDiscrepancy(g, gdbOut, Absolute)
		emdMAE := MAEDegreeDiscrepancy(g, emdOut, Absolute)
		if emdMAE <= gdbMAE+1e-12 {
			wins++
		}
		total++
	}
	if wins*2 < total {
		t.Errorf("EMD beat GDB on only %d/%d instances", wins, total)
	}
}

func TestEMDNaiveEPhaseAlsoImproves(t *testing.T) {
	// The naive (global-scan) E-phase offers every slot every candidate,
	// but each slot's choice is still greedy, so it need not end below the
	// heap-guided E-phase: over 20 seeds of this set-up it ended above it
	// in 2. Both must keep the edge count and must not degrade D1.
	rng := rand.New(rand.NewSource(77))
	g := randomConnectedGraph(rng, 30, 0.3)
	backbone, err := SpanningBackbone(g, 0.35, rng)
	if err != nil {
		t.Fatal(err)
	}
	heapOut, heapStats, err := EMD(context.Background(), g, backbone, EMDOptions{H: 0.05, MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	naiveOut, naiveStats, err := EMD(context.Background(), g, backbone, EMDOptions{H: 0.05, MaxRounds: 8, NaiveEPhase: true})
	if err != nil {
		t.Fatal(err)
	}
	if naiveOut.NumEdges() != len(backbone) || heapOut.NumEdges() != len(backbone) {
		t.Error("edge count changed")
	}
	raw, err := g.EdgeSubgraph(backbone)
	if err != nil {
		t.Fatal(err)
	}
	before := sumSquares(DegreeDiscrepancies(g, raw, Absolute))
	if naiveStats.ObjectiveD1 > before || heapStats.ObjectiveD1 > before {
		t.Errorf("E-phase variants degraded D1: naive %v, heap %v, raw %v",
			naiveStats.ObjectiveD1, heapStats.ObjectiveD1, before)
	}
}

func TestEMDRejectsNothing(t *testing.T) {
	// EMD on a backbone that is already optimal (full graph edge set is
	// not allowed, so use a near-complete backbone): must terminate
	// without error and without degrading D1.
	g := ugraph.MustNew(4, []ugraph.Edge{
		{U: 0, V: 1, P: 0.5},
		{U: 1, V: 2, P: 0.5},
		{U: 2, V: 3, P: 0.5},
		{U: 0, V: 3, P: 0.5},
	})
	backbone := []int{0, 1, 2}
	raw, err := g.EdgeSubgraph(backbone)
	if err != nil {
		t.Fatal(err)
	}
	before := sumSquares(DegreeDiscrepancies(g, raw, Absolute))
	_, stats, err := EMD(context.Background(), g, backbone, EMDOptions{H: 1, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ObjectiveD1 > before {
		t.Errorf("EMD degraded D1: %v -> %v", before, stats.ObjectiveD1)
	}
}

func TestEMDStopsByTau(t *testing.T) {
	// Each M-phase starts from the probabilities the last round left and
	// each E-phase inserts its candidate at the Eq. (9) optimum, so rounds
	// improve D1 until it settles and the Tau test ends the run early. The
	// graph is the benchmark's s10k fixture.
	g, err := gen.Social(gen.SocialConfig{N: 1000, AvgDegree: 20, MeanProb: 0.09, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	backbone, err := BuildBackbone(g, 0.3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []Discrepancy{Absolute, Relative} {
		_, gdbStats, err := GDB(context.Background(), g, backbone, GDBOptions{Discrepancy: dt})
		if err != nil {
			t.Fatal(err)
		}
		opts := EMDOptions{Discrepancy: dt}
		_, emdStats, err := EMD(context.Background(), g, backbone, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.defaults(g.NumVertices())
		t.Logf("%v: EMD D1 %.3g after %d rounds (%d swaps); GDB D1 %.3g",
			dt, emdStats.ObjectiveD1, emdStats.Iterations, emdStats.Swaps, gdbStats.ObjectiveD1)
		if emdStats.Iterations >= opts.MaxRounds {
			t.Errorf("%v: EMD ran all %d rounds; the Tau test never fired", dt, emdStats.Iterations)
		}
		if emdStats.ObjectiveD1 >= gdbStats.ObjectiveD1 {
			t.Errorf("%v: EMD D1 %v not below GDB D1 %v on the same backbone",
				dt, emdStats.ObjectiveD1, gdbStats.ObjectiveD1)
		}
	}
}
