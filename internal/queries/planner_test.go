package queries

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ugs/internal/mc"
)

// TestPlannerWidths pins the lane rule at its edges: only vector queries
// and an explicit Lanes: 1 are scalar, whatever the budget, explicit widths
// pass through, connectivity stays at 64 lanes, and pair queries switch
// from 64 to 256 lanes at wideBudget samples. A confidence target does not
// enter the rule: adaptive runs plan each round from that round's budget.
func TestPlannerWidths(t *testing.T) {
	g := diamond(0.5)
	cases := []struct {
		name string
		opts mc.Options
		kind Kind
		want int
	}{
		{"vector always scalar", mc.Options{Samples: 5000}, KindVector, 1},
		{"explicit scalar", mc.Options{Lanes: 1, Samples: 5000}, KindPair, 1},
		{"explicit 256", mc.Options{Lanes: 256, Samples: 10}, KindPair, 256},
		{"explicit 64", mc.Options{Lanes: 64, Samples: 5000}, KindPair, 64},
		{"pair one sample", mc.Options{Samples: 1}, KindPair, 64},
		{"pair 4 samples", mc.Options{Samples: 4}, KindPair, 64},
		{"pair 8 samples", mc.Options{Samples: 8}, KindPair, 64},
		{"connectivity one sample", mc.Options{Samples: 1}, KindConnectivity, 64},
		{"connectivity 4 samples", mc.Options{Samples: 4}, KindConnectivity, 64},
		{"connectivity 8 samples", mc.Options{Samples: 8}, KindConnectivity, 64},
		{"vector one sample", mc.Options{Samples: 1}, KindVector, 1},
		{"pair 9 samples", mc.Options{Samples: 9}, KindPair, 64},
		{"one-word budget", mc.Options{Samples: 50}, KindConnectivity, 64},
		{"pair below wide budget", mc.Options{Samples: 383}, KindPair, 64},
		{"pair at wide budget", mc.Options{Samples: 384}, KindPair, 256},
		{"pair default budget", mc.Options{}, KindPair, 256},
		{"connectivity large budget", mc.Options{Samples: 5000}, KindConnectivity, 64},
		{"target ignored, 128 samples", mc.Options{Samples: 128, Target: mc.WithConfidence(0.1, 0.05)}, KindPair, 64},
		{"target cap ignored, 512 samples", mc.Options{Samples: 512, Target: &mc.Target{Eps: 0.1, MaxSamples: 256}}, KindPair, 256},
	}
	for _, c := range cases {
		if got := PlanLanes(g, c.opts, c.kind); got != c.want {
			t.Errorf("%s: PlanLanes = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestPlanFanOut pins the fan-out rule: 64-lane runs report full groups of
// 8 once there are 8 sources, unless FanOut pins the per-source ablation;
// 256-lane runs — planned or explicit — and scalar worlds traverse per
// source, whatever FanOut says.
func TestPlanFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randomQueryGraph(rng, 30, 0.2)
	cases := []struct {
		opts     mc.Options
		distinct int
		want     int
	}{
		{mc.Options{Samples: 128, FanOut: 8}, 256, 8}, // explicit, plenty of sources
		{mc.Options{Samples: 128, FanOut: 8}, 13, 8},  // one full group, five left over
		{mc.Options{Samples: 128, FanOut: 8}, 5, 1},   // no full group
		{mc.Options{FanOut: 8}, 256, 1},               // 500 samples: 256 lanes never group
		{mc.Options{Samples: 128, FanOut: 1}, 256, 1}, // per-source ablation
		{mc.Options{}, 1, 1},                          // nothing to group
		{mc.Options{Lanes: 1}, 256, 1},                // scalar reference: per source
		{mc.Options{Lanes: 1, FanOut: 8}, 256, 1},     // scalar reference ignores FanOut
		{mc.Options{Samples: 383}, 8, 8},              // 64 lanes, enough sources
		{mc.Options{Samples: 383}, 7, 1},              // 64 lanes, too few to group
		{mc.Options{Samples: 383}, 256, 8},            // 64 lanes, group of 8
		{mc.Options{Samples: 384}, 16, 1},             // 256 lanes: per source
		{mc.Options{Lanes: 256, Samples: 100}, 16, 1}, // explicit 256, fan-out auto
		{mc.Options{Lanes: 64, Samples: 5000}, 16, 8}, // explicit 64 at a wide budget
		{mc.Options{Lanes: 256, FanOut: 8}, 16, 1},    // explicit both: 256 lanes never group
	}
	for i, c := range cases {
		o := c.opts.WithDefaults()
		if got := PlanFanOut(g, o, c.distinct, KindPair); got != c.want {
			t.Errorf("case %d (%+v, distinct=%d): fan-out %d, want %d", i, c.opts, c.distinct, got, c.want)
		}
	}
}

// TestAdaptiveRoundsPlannedPerRound: an auto-planned adaptive run plans
// each round from its own budget, so with MinSamples 4 the 4-, 4- and
// 8-sample rounds run 64 lanes, as do the rounds up to 256 samples, and
// the later ones 256 lanes. Mixing shapes across rounds must stop at the
// same sample count with the same estimates as a run pinned to one width.
func TestAdaptiveRoundsPlannedPerRound(t *testing.T) {
	g := diamond(0.6)
	pairs := []Pair{{S: 0, T: 3}, {S: 1, T: 2}}
	type outcome struct {
		rl   [2]float64
		conn float64
		info [2]mc.RunInfo
	}
	run := func(lanes int) outcome {
		opts := mc.Options{Seed: 31, Lanes: lanes, Target: &mc.Target{Eps: 0.03, MinSamples: 4}}
		rl, rinfo, err := ReliabilityRun(bg(), g, pairs, opts)
		if err != nil {
			t.Fatal(err)
		}
		conn, cinfo, err := ConnectedProbabilityRun(bg(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{rl: [2]float64{rl[0], rl[1]}, conn: conn, info: [2]mc.RunInfo{rinfo, cinfo}}
	}
	auto := run(0)
	if auto.info[0].Samples <= 512 {
		t.Fatalf("reliability stopped at %d samples; the schedule never reached a 256-lane round", auto.info[0].Samples)
	}
	for _, lanes := range []int{64, 256} {
		if got := run(lanes); got != auto {
			t.Errorf("lanes=%d: %+v != auto %+v", lanes, got, auto)
		}
	}
}

// TestPlannedQueryReleasesGraph: an auto-planned query must not keep its
// graph reachable once the caller drops it. A long-running server hands the
// engine every patched generation, reload, upload and sparsified result; if
// planning cached anything per graph, or a pooled world batch, arc table or
// fill option still pointed at it, none of them could be collected. The
// pools keep their items through one collection, so the graph must go in
// the first one.
func TestPlannedQueryReleasesGraph(t *testing.T) {
	collected := make(chan struct{})
	func() {
		rng := rand.New(rand.NewSource(79))
		g := randomQueryGraph(rng, 60, 0.1)
		runtime.AddCleanup(g, func(ch chan struct{}) { close(ch) }, collected)
		pairs := RandomPairs(g.NumVertices(), 4, rng)
		if _, err := Reliability(bg(), g, pairs, mc.Options{Samples: 512, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := ConnectedProbability(bg(), g, mc.Options{Samples: 512, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		cached := mc.Options{Samples: 512, Seed: 1, FillCache: newBlockCache(), FillID: "g@1"}
		if _, err := Reliability(bg(), g, pairs, cached); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("graph still reachable after auto-planned queries")
	}
}
