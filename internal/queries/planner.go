package queries

import (
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// Kind classifies a query for the execution planner: pair queries
// (reliability / shortest distance) answer source/target pairs,
// connectivity sweeps every vertex once, and vector queries
// (PageRank, clustering) need real-valued per-world state that the
// bit-parallel engine cannot carry.
type Kind int

const (
	// KindPair is an s→t reachability / distance query (RL, SP).
	KindPair Kind = iota
	// KindConnectivity is the all-vertices-connected query.
	KindConnectivity
	// KindVector is a per-vertex real-valued query (PageRank, clustering
	// coefficients); always scalar worlds.
	KindVector
)

// The engine shape an automatic run takes is a fixed rule over the query
// kind, the sample budget and the pairs' sources — no timing, no state, the
// same answer on every run. Every shape returns bit-identical estimates, so
// the rule only trades speed, and it picks the shape that measured fastest
// (or close to it) across the committed graphs and the s10k/s100k social
// graphs (BenchmarkPlannerGrid):
//
//   - pair queries with at least wideBudget samples run 256 lanes, smaller
//     budgets 64 lanes: wide vectors amortize per-arc control flow over
//     more worlds once the budget fills them;
//   - at either width, a pair whose source has at most pairSearchTargets
//     targets runs a pair search (PairSearch), which stops each lane where
//     the source and target balls meet; the other pairs share one source
//     traversal per source, which settles every target at once;
//   - source traversals at 64 lanes run each full group of groupFanOut
//     sources as one MSBFS traversal, amortizing the arc stream across
//     sources, and every other source as one MaskBFS; at 256 lanes every
//     source runs one MaskBFS;
//   - connectivity runs 64 lanes: the stranded-vertex screen answers most
//     batches without a traversal (MaskBFS.ConnectedLanes), so a run is
//     bound by its fills; at 512 samples 64 and 256 lanes time within 5%
//     of each other, and at 128 samples half-empty 256-lane batches are
//     1.8–2.1× slower.
//
// The route to pair searches applies to explicit shapes too: Options.Lanes
// pins the width, Options.FanOut 1 pins one source per traversal (FanOut 8
// plans as auto at batch widths), and only Lanes: 1 (the scalar reference)
// runs no pair search.
const (
	// wideBudget is the smallest pair-query budget that runs at 256 lanes.
	wideBudget = 384
	// scalarFanOut is the auto group size on scalar worlds: MSWorldBFS's
	// full source mask.
	scalarFanOut = 64
	// pairSearchTargets is the most targets a source can have for its
	// pairs to run pair searches instead of one source traversal.
	pairSearchTargets = 3
)

// pairRoute splits a batch pass's pairs between the two traversal kinds:
// searched pairs get one PairSearch each, and the remaining sources one
// source traversal each (or one per fan-sized group of them).
type pairRoute struct {
	searched []int         // indices of pairs answered by a pair search
	sources  []int         // sorted distinct sources that get a traversal
	bySource map[int][]int // pair indices per traversal source
}

// routePairs applies the pairSearchTargets rule: a source's pairs all go to
// pair searches when it has at most that many of them (duplicates count,
// since each costs a search), otherwise all to its source traversal.
func routePairs(pairs []Pair) pairRoute {
	bySource, sources := groupPairsBySource(pairs)
	r := pairRoute{bySource: bySource}
	for _, s := range sources {
		if idx := bySource[s]; len(idx) <= pairSearchTargets {
			r.searched = append(r.searched, idx...)
			delete(bySource, s)
		} else {
			r.sources = append(r.sources, s)
		}
	}
	return r
}

// planLanes resolves the lane width a fixed-budget pass will execute at: the
// explicit Options.Lanes when one was set, otherwise the rule above applied
// to opts.Samples. Adaptive runs plan each round as such a pass, from the
// round's own budget; opts.Target does not enter the rule. The result is
// always one of 1, 64, 256. opts must have passed Validate.
func planLanes(opts mc.Options, kind Kind) int {
	if kind == KindVector || opts.Lanes == 1 {
		return 1
	}
	if opts.Lanes != 0 {
		return opts.Lanes
	}
	switch samples := opts.WithDefaults().Samples; {
	case samples <= 8:
		// A batch fill costs one pass over the edge list regardless of how
		// many lanes are active; a handful of worlds is cheaper drawn scalar.
		return 1
	case kind == KindPair && samples >= wideBudget:
		return 4 * ugraph.BatchLanes
	default:
		return ugraph.BatchLanes
	}
}

// PlanLanes reports the width planLanes would choose — the introspection
// hook behind the benchmark harness and the README decision table. The
// graph does not enter the rule.
func PlanLanes(_ *ugraph.Graph, opts mc.Options, kind Kind) int {
	return planLanes(opts, kind)
}

// planFanOut resolves the source group size of a pair-estimator run's
// source traversals. On scalar worlds it is the explicit Options.FanOut, or
// scalarFanOut when auto (the grouped BFS walks each present arc of a level
// once for the whole group, so sharing always amortizes), clamped to the
// distinct sources. At batch widths it is the size of the full groups the
// MSBFS kernel runs: groupFanOut at 64 lanes once distinct reaches it,
// unless FanOut pins the per-source ablation, and 1 otherwise; the sources
// outside full groups, and every source at 256 lanes, run one MaskBFS each.
// distinct counts the sources that get a traversal — every distinct source
// on scalar worlds, only the routed ones (routePairs) at batch widths. Like
// the lane width, fan-out is a pure execution decision — per-pair results
// are bit-identical across every value. opts must have passed Validate.
func planFanOut(opts mc.Options, distinct, lanes int) int {
	switch {
	case lanes == 1:
		fan := opts.FanOut
		if fan == 0 {
			fan = scalarFanOut
		}
		return max(min(fan, distinct), 1)
	case lanes == ugraph.BatchLanes && opts.FanOut != 1 && distinct >= groupFanOut:
		return groupFanOut
	}
	return 1
}

// PlanFanOut reports the group size planFanOut would choose for a query
// whose source traversals start from the given number of distinct sources —
// the introspection hook behind the benchmark harness and tests.
func PlanFanOut(_ *ugraph.Graph, opts mc.Options, distinct int, kind Kind) int {
	return planFanOut(opts, distinct, planLanes(opts, kind))
}
