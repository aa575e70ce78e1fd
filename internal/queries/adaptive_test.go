package queries

import (
	"errors"
	"math"
	"testing"

	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// singleEdge is the smallest analytically-known RL instance: one edge of
// probability p, so RL(0,1) = p exactly.
func singleEdge(p float64) *ugraph.Graph {
	return ugraph.MustNew(2, []ugraph.Edge{{U: 0, V: 1, P: p}})
}

// diamond is the two-path diamond: 0−1−3 and 0−2−3, every edge with
// probability p. RL(0,3) = 1 − (1 − p²)², and the conditional expected
// distance is computable from the path probabilities.
func diamond(p float64) *ugraph.Graph {
	return ugraph.MustNew(4, []ugraph.Edge{
		{U: 0, V: 1, P: p},
		{U: 1, V: 3, P: p},
		{U: 0, V: 2, P: p},
		{U: 2, V: 3, P: p},
	})
}

// TestAdaptiveReliabilityHitsTargetSingleEdge is the statistical contract
// of sequential stopping on the single-edge graph: the run must converge,
// and the estimate must be within eps of the true reliability p (the CI
// construction guarantees this with probability ≥ 1−delta; the fixed seed
// makes the check deterministic).
func TestAdaptiveReliabilityHitsTargetSingleEdge(t *testing.T) {
	pairs := []Pair{{S: 0, T: 1}}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		g := singleEdge(p)
		opts := mc.Options{Seed: 3, Target: mc.WithConfidence(0.02, 0.05)}
		rl, info, err := ReliabilityRun(bg(), g, pairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Converged {
			t.Fatalf("p=%v: did not converge within %d samples", p, info.Samples)
		}
		if math.Abs(rl[0]-p) > 0.02 {
			t.Errorf("p=%v: adaptive RL = %v (%d samples), want within eps=0.02", p, rl[0], info.Samples)
		}
		// Extreme probabilities have small Bernoulli variance, so the CI
		// tightens with far fewer samples than p = 0.5 needs — the whole
		// point of adaptive stopping.
		if p != 0.5 && info.Samples >= 1<<17 {
			t.Errorf("p=%v: burned the full MaxSamples budget", p)
		}
	}
}

// TestAdaptiveReliabilityDiamond checks sequential stopping against the
// closed-form diamond reliability RL(0,3) = 1 − (1 − p²)².
func TestAdaptiveReliabilityDiamond(t *testing.T) {
	const p = 0.7
	want := 1 - math.Pow(1-p*p, 2)
	g := diamond(p)
	rl, info, err := ReliabilityRun(bg(), g, []Pair{{S: 0, T: 3}},
		mc.Options{Seed: 9, Target: mc.WithConfidence(0.03, 0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Converged {
		t.Fatalf("did not converge within %d samples", info.Samples)
	}
	if math.Abs(rl[0]-want) > 0.03 {
		t.Errorf("adaptive RL = %v (%d samples), want %.4f ± 0.03", rl[0], info.Samples, want)
	}
	if exact := mc.ExactProbabilityOf(g, func(w *ugraph.World) bool {
		return (w.Present(0) && w.Present(1)) || (w.Present(2) && w.Present(3))
	}); math.Abs(exact-want) > 1e-12 {
		t.Fatalf("closed form %v disagrees with exhaustive enumeration %v", want, exact)
	}
}

// TestAdaptiveStoppingSavesSamples pins the acceptance property: on an
// easy target (every pair's reliability far from 1/2, or a loose eps) the
// adaptive run stops below the fixed 500-sample default while still
// landing within eps.
func TestAdaptiveStoppingSavesSamples(t *testing.T) {
	g := singleEdge(0.95)
	rl, info, err := ReliabilityRun(bg(), g, []Pair{{S: 0, T: 1}},
		mc.Options{Seed: 7, Target: mc.WithConfidence(0.05, 0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Converged || info.Samples >= 500 {
		t.Errorf("adaptive run took %d samples (converged=%v), want convergence below the fixed default 500",
			info.Samples, info.Converged)
	}
	if math.Abs(rl[0]-0.95) > 0.05 {
		t.Errorf("estimate %v outside eps of 0.95", rl[0])
	}
}

// TestAdaptiveDeterministicAcrossWorkersAndWidths is the reproducibility
// contract for sequential stopping: the stopped sample count, round count
// and every estimate must be identical for any Workers value and for every
// explicit lane width, because stopping decisions happen only at round
// boundaries over deterministic accumulators.
func TestAdaptiveDeterministicAcrossWorkersAndWidths(t *testing.T) {
	g := diamond(0.6)
	pairs := []Pair{{S: 0, T: 3}, {S: 1, T: 2}}
	type outcome struct {
		rl   [2]float64
		info mc.RunInfo
	}
	run := func(workers, lanes int) outcome {
		opts := mc.Options{Seed: 13, Workers: workers, Lanes: lanes,
			Target: mc.WithConfidence(0.04, 0.05)}
		rl, info, err := ReliabilityRun(bg(), g, pairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rl: [2]float64{rl[0], rl[1]}, info: info}
	}
	ref := run(1, 64)
	for _, workers := range []int{1, 4, 8} {
		for _, lanes := range []int{0, 64, 256} {
			if got := run(workers, lanes); got != ref {
				t.Fatalf("workers=%d lanes=%d: %+v != reference %+v", workers, lanes, got, ref)
			}
		}
	}
}

// TestAdaptiveConnectedProbability runs sequential stopping on the
// connectivity estimator against exhaustive enumeration.
func TestAdaptiveConnectedProbability(t *testing.T) {
	g := diamond(0.8)
	exact := mc.ExactProbabilityOf(g, func(w *ugraph.World) bool { return w.IsConnected() })
	got, info, err := ConnectedProbabilityRun(bg(), g,
		mc.Options{Seed: 17, Target: mc.WithConfidence(0.03, 0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Converged {
		t.Fatalf("did not converge within %d samples", info.Samples)
	}
	if math.Abs(got-exact) > 0.03 {
		t.Errorf("adaptive Pr[connected] = %v (%d samples), want %v ± 0.03", got, info.Samples, exact)
	}
}

// TestAdaptiveMaxSamplesCap: an unreachable eps must stop at MaxSamples
// and report Converged false rather than loop.
func TestAdaptiveMaxSamplesCap(t *testing.T) {
	g := singleEdge(0.5)
	tgt := &mc.Target{Eps: 0.001, Delta: 0.05, MinSamples: 64, MaxSamples: 512}
	_, info, err := ReliabilityRun(bg(), g, []Pair{{S: 0, T: 1}},
		mc.Options{Seed: 23, Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	if info.Converged || info.Samples != 512 {
		t.Errorf("info = %+v, want unconverged at the 512-sample cap", info)
	}
}

// TestEstimatorsRejectInvalidOptions: the typed validation errors must
// surface through the public estimators.
func TestEstimatorsRejectInvalidOptions(t *testing.T) {
	g := singleEdge(0.5)
	pairs := []Pair{{S: 0, T: 1}}
	if _, err := Reliability(bg(), g, pairs, mc.Options{Samples: -1}); !errors.Is(err, mc.ErrSampleCount) {
		t.Errorf("Reliability(Samples: -1) err = %v, want ErrSampleCount", err)
	}
	if _, err := ConnectedProbability(bg(), g, mc.Options{Lanes: 7}); !errors.Is(err, mc.ErrLaneWidth) {
		t.Errorf("ConnectedProbability(Lanes: 7) err = %v, want ErrLaneWidth", err)
	}
	bad := mc.Options{Lanes: 1, Target: mc.WithConfidence(0.05, 0.05)}
	if _, _, err := ReliabilityRun(bg(), g, pairs, bad); !errors.Is(err, mc.ErrScalarTarget) {
		t.Errorf("ReliabilityRun(Lanes: 1+Target) err = %v, want ErrScalarTarget", err)
	}
	if _, _, err := ConnectedProbabilityRun(bg(), g, mc.Options{Target: mc.WithConfidence(2, 0.05)}); !errors.Is(err, mc.ErrConfidence) {
		t.Errorf("ConnectedProbabilityRun(eps=2) err = %v, want ErrConfidence", err)
	}
}
