package queries

import (
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// Kind classifies a query for the execution planner: pair queries
// (reliability / shortest distance) fan one traversal out over many
// targets, connectivity sweeps every vertex once, and vector queries
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
// kind, the sample budget and the distinct-source count — no timing, no
// state, the same answer on every run. Every shape returns bit-identical
// estimates, so the rule only trades speed, and it picks the shape that
// measured fastest (or close to it) across the committed graphs and the
// s10k/s100k social graphs (BenchmarkPlannerGrid):
//
//   - pair queries with at least wideBudget samples run 256 lanes, one
//     source per traversal: wide vectors amortize per-arc control flow over
//     more worlds once the budget fills them;
//   - smaller pair budgets run 64 lanes and group groupFanOut sources per
//     traversal when there are that many, amortizing the arc stream across
//     sources instead;
//   - connectivity runs 64 lanes: one traversal per batch leaves it
//     fill-bound, where wider vectors gain nothing.
const (
	// wideBudget is the smallest pair-query budget that runs at 256 lanes.
	wideBudget = 384
	// groupFanOut is the source group size of auto-planned 64-lane pair
	// queries with at least that many distinct sources.
	groupFanOut = 8
)

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

// planFanOut resolves the source group size a pair-estimator run uses: the
// explicit Options.FanOut when one was set, otherwise the full 64-source
// mask on scalar worlds (the grouped BFS walks each present arc of a level
// once for the whole group, so sharing always amortizes), groupFanOut at 64
// lanes and one source per traversal at 256. The result is clamped to the
// number of distinct sources and is always in 1..mc.MaxFanOut. Like the
// lane width, fan-out is a pure execution decision — per-pair results are
// bit-identical across every value. opts must have passed Validate.
func planFanOut(opts mc.Options, distinct, lanes int) int {
	fan := opts.FanOut
	if fan == 0 {
		switch lanes {
		case 1:
			fan = mc.MaxFanOut
		case ugraph.BatchLanes:
			if distinct >= groupFanOut {
				fan = groupFanOut
			}
		}
	}
	return max(min(fan, distinct), 1)
}

// PlanFanOut reports the group size planFanOut would choose for a query
// with the given number of distinct sources — the introspection hook behind
// the benchmark harness and tests.
func PlanFanOut(_ *ugraph.Graph, opts mc.Options, distinct int, kind Kind) int {
	return planFanOut(opts, distinct, planLanes(opts, kind))
}
