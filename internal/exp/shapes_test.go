package exp

// Shape tests: the paper's qualitative findings, asserted programmatically
// at CI scale. These are the reproduction contract — EXPERIMENTS.md's
// checkmarks in executable form.

import (
	"context"
	"math/rand"
	"testing"

	"ugs/internal/core"
	"ugs/internal/ugraph"
)

func mustRun(t *testing.T, spec MethodSpec, g *ugraph.Graph, alpha float64, seed int64) *ugraph.Graph {
	t.Helper()
	out, err := spec.Run(context.Background(), g, alpha, seed)
	if err != nil {
		t.Fatalf("%s(α=%v): %v", spec.Name, alpha, err)
	}
	return out
}

// TestShapeFig6ProposedBeatBenchmarks: GDB and EMD must preserve expected
// degrees better than both NI and SS on both datasets for α ≥ 16%.
func TestShapeFig6ProposedBeatBenchmarks(t *testing.T) {
	ctx := testContext()
	methods := comparisonMethods() // NI, SS, GDB, EMD
	for _, ds := range realLikeDatasets(ctx) {
		for _, alpha := range []float64{0.16, 0.32, 0.64} {
			mae := map[string]float64{}
			for _, spec := range methods {
				out := mustRun(t, spec, ds.g, alpha, 1)
				mae[displayName(spec)] = core.MAEDegreeDiscrepancy(ds.g, out, core.Absolute)
			}
			for _, proposed := range []string{"GDB", "EMD"} {
				for _, bench := range []string{"NI", "SS"} {
					if mae[proposed] >= mae[bench] {
						t.Errorf("%s α=%v: %s MAE %v not below %s MAE %v",
							ds.name, alpha, proposed, mae[proposed], bench, mae[bench])
					}
				}
			}
		}
	}
}

// TestShapeEMDNotWorseThanGDB: EMD starts from GDB's backbone and may swap
// its edges (Algorithm 3), so on every dataset, ratio, discrepancy and
// backbone kind its degree MAE must not exceed GDB's on the same backbone
// (Table 2's EMD rows against the GDB rows above them).
func TestShapeEMDNotWorseThanGDB(t *testing.T) {
	ctx := testContext()
	for _, ds := range realLikeDatasets(ctx) {
		for _, alpha := range []float64{0.16, 0.32, 0.64} {
			for _, dt := range []core.Discrepancy{core.Absolute, core.Relative} {
				for _, spanning := range []bool{false, true} {
					gdb := proposedVariant(core.MethodGDB, dt, 1, spanning)
					emd := proposedVariant(core.MethodEMD, dt, 1, spanning)
					gdbMAE := core.MAEDegreeDiscrepancy(ds.g, mustRun(t, gdb, ds.g, alpha, 1), core.Absolute)
					emdMAE := core.MAEDegreeDiscrepancy(ds.g, mustRun(t, emd, ds.g, alpha, 1), core.Absolute)
					if emdMAE > gdbMAE {
						t.Errorf("%s α=%v: %s MAE %.4g above %s MAE %.4g",
							ds.name, alpha, emd.Name, emdMAE, gdb.Name, gdbMAE)
					}
				}
			}
		}
	}
}

// TestShapeFig8EntropyOrdering: the proposed methods reduce entropy more
// than SS (which performs no redistribution) at every α, and every method
// yields relative entropy < 1.
func TestShapeFig8EntropyOrdering(t *testing.T) {
	ctx := testContext()
	methods := comparisonMethods()
	for _, ds := range realLikeDatasets(ctx) {
		for _, alpha := range []float64{0.08, 0.16, 0.32, 0.64} {
			rel := map[string]float64{}
			for _, spec := range methods {
				out := mustRun(t, spec, ds.g, alpha, 1)
				rel[displayName(spec)] = ugraph.RelativeEntropy(out, ds.g)
			}
			for name, r := range rel {
				if r >= 1 {
					t.Errorf("%s α=%v: %s relative entropy %v ≥ 1", ds.name, alpha, name, r)
				}
			}
			if rel["EMD"] >= rel["SS"] {
				t.Errorf("%s α=%v: EMD entropy %v not below SS %v",
					ds.name, alpha, rel["EMD"], rel["SS"])
			}
			// The paper's GDB-vs-benchmarks entropy gap is a small-α claim
			// ("at least an order of magnitude less entropy for small α");
			// at α = 64% the methods converge.
			if alpha <= 0.32 && rel["GDB"] >= rel["SS"] {
				t.Errorf("%s α=%v: GDB entropy %v not below SS %v",
					ds.name, alpha, rel["GDB"], rel["SS"])
			}
		}
	}
}

// TestShapeTable2LPIsOptimal: LP's degree-discrepancy L1 norm lower-bounds
// every GDB variant on the same backbone (Theorem 1).
func TestShapeTable2LPIsOptimal(t *testing.T) {
	ctx := testContext()
	g := ctx.FlickrReduced()
	for _, spanning := range []bool{false, true} {
		lp := proposedVariant(core.MethodLP, core.Absolute, 1, spanning)
		gdbA := proposedVariant(core.MethodGDB, core.Absolute, 1, spanning)
		gdbR := proposedVariant(core.MethodGDB, core.Relative, 1, spanning)
		for _, alpha := range []float64{0.16, 0.32} {
			lpMAE := core.MAEDegreeDiscrepancy(g, mustRun(t, lp, g, alpha, 1), core.Absolute)
			for _, spec := range []MethodSpec{gdbA, gdbR} {
				m := core.MAEDegreeDiscrepancy(g, mustRun(t, spec, g, alpha, 1), core.Absolute)
				if lpMAE > m+1e-9 {
					t.Errorf("spanning=%v α=%v: LP MAE %v above %s MAE %v",
						spanning, alpha, lpMAE, spec.Name, m)
				}
			}
		}
	}
}

// TestShapeTable2GDBnWorst: the k = n rule is the worst variant for degree
// preservation at α ≥ 16% (Table 2's standout row).
func TestShapeTable2GDBnWorst(t *testing.T) {
	ctx := testContext()
	g := ctx.FlickrReduced()
	kn := proposedVariant(core.MethodGDB, core.Absolute, core.KAll, false)
	others := []MethodSpec{
		proposedVariant(core.MethodGDB, core.Absolute, 1, false),
		proposedVariant(core.MethodGDB, core.Absolute, 2, false),
		proposedVariant(core.MethodEMD, core.Absolute, 1, false),
	}
	for _, alpha := range []float64{0.16, 0.32, 0.64} {
		worst := core.MAEDegreeDiscrepancy(g, mustRun(t, kn, g, alpha, 1), core.Absolute)
		for _, spec := range others {
			m := core.MAEDegreeDiscrepancy(g, mustRun(t, spec, g, alpha, 1), core.Absolute)
			if m >= worst {
				t.Errorf("α=%v: %s MAE %v not below GDB_n %v", alpha, spec.Name, m, worst)
			}
		}
	}
}

// TestShapeFig5EntropyKnob: h = 1 must achieve better degree accuracy and
// higher entropy than h = 0 (Figure 5's trade-off).
func TestShapeFig5EntropyKnob(t *testing.T) {
	ctx := testContext()
	g := ctx.FlickrReduced()
	run := func(h float64) *ugraph.Graph {
		out, _, err := core.Sparsify(context.Background(), g, 0.32, core.Options{
			Method: core.MethodGDB, Backbone: core.BackboneSpanning, H: h, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	h0 := run(core.HZero)
	h1 := run(1)
	if m0, m1 := core.MAEDegreeDiscrepancy(g, h0, core.Absolute), core.MAEDegreeDiscrepancy(g, h1, core.Absolute); m1 >= m0 {
		t.Errorf("h=1 MAE %v not below h=0 MAE %v", m1, m0)
	}
	if e0, e1 := h0.Entropy(), h1.Entropy(); e1 <= e0 {
		t.Errorf("h=1 entropy %v not above h=0 entropy %v", e1, e0)
	}
}

// TestShapeFig7BenchmarkErrorGrowsWithDensity: NI's and SS's degree error
// must grow with density while GDB stays far below (Figure 7).
func TestShapeFig7BenchmarkErrorGrowsWithDensity(t *testing.T) {
	ctx := testContext()
	family := ctx.DensityFamily()
	lo, hi := family[0], family[len(family)-1]
	for _, spec := range []MethodSpec{benchmarkNI(), benchmarkSS()} {
		mLo := core.MAEDegreeDiscrepancy(lo.G, mustRun(t, spec, lo.G, 0.16, 1), core.Absolute)
		mHi := core.MAEDegreeDiscrepancy(hi.G, mustRun(t, spec, hi.G, 0.16, 1), core.Absolute)
		if mHi <= mLo {
			t.Errorf("%s: error did not grow with density (%v -> %v)", spec.Name, mLo, mHi)
		}
	}
	gdb := proposedVariant(core.MethodGDB, core.Absolute, 1, false)
	gdbHi := core.MAEDegreeDiscrepancy(hi.G, mustRun(t, gdb, hi.G, 0.16, 1), core.Absolute)
	niHi := core.MAEDegreeDiscrepancy(hi.G, mustRun(t, benchmarkNI(), hi.G, 0.16, 1), core.Absolute)
	if gdbHi >= niHi/2 {
		t.Errorf("at 90%% density GDB MAE %v not well below NI %v", gdbHi, niHi)
	}
}

// TestShapeFig4aKnCrossover: at α = 8% (below the expected edge count) the
// k = n rule is competitive on cut preservation, while for α ≥ 32% it is
// the worst variant (Figure 4(a)'s crossover).
func TestShapeFig4aKnCrossover(t *testing.T) {
	ctx := testContext()
	g := ctx.FlickrReduced()
	s := ctx.Cfg.scale()
	kn := proposedVariant(core.MethodGDB, core.Absolute, core.KAll, false)
	k1 := proposedVariant(core.MethodGDB, core.Absolute, 1, false)
	cutMAE := func(spec MethodSpec, alpha float64) float64 {
		out := mustRun(t, spec, g, alpha, 1)
		rng := rand.New(rand.NewSource(99))
		return core.MAECutDiscrepancy(g, out, s.cutMaxK, s.cutSamplesPerK, rng)
	}
	if knLate, k1Late := cutMAE(kn, 0.64), cutMAE(k1, 0.64); knLate <= k1Late {
		t.Errorf("α=64%%: GDB_n cut MAE %v not above GDB %v", knLate, k1Late)
	}
	// At 8% the ordering flips or at least tightens dramatically.
	knEarly, k1Early := cutMAE(kn, 0.08), cutMAE(k1, 0.08)
	if knEarly > 1.5*k1Early {
		t.Errorf("α=8%%: GDB_n cut MAE %v not competitive with GDB %v", knEarly, k1Early)
	}
}
