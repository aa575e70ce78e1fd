package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a change
// counts as a regression (0 for per-layer metrics, which carry no bound).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

func (m metricDef) lowerIsBetter() bool { return m.Better == "lower" }

// endToEnd lists the metrics a user of ugs-serve or of the library sees,
// reported for every workload. BENCHMARK.json repeats this table; a test
// keeps the two in step. Each bound is set from the quartile spread and the
// drift between sets of ten seeds measured on the two-core reference
// machine (README.md, "Noise on the reference machine"): the timings spread
// by up to 21% (p50), 18.5% (closed-loop throughput) and 15% (CPU per op),
// and one set's medians sat up to 20% above another's an hour earlier, so
// they take 25%, the widest bound allowed. The open loops' p99 spread 39–94%
// there, following the host's CPU steal; no bound could hold it, so it is
// reported per layer (trace.latency_p99_ms) instead of gating a change.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_ops", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the metrics the traced replay reports, grouped by the layer
// they measure. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"serve.handler.self_ms_p50", "ms", "lower", 0},
	{"serve.handler.decode_us_p50", "us", "lower", 0},
	{"serve.handler.encode_us_p50", "us", "lower", 0},
	{"serve.store.acquire_ms_p99", "ms", "lower", 0},
	{"serve.store.patch_ms_p50", "ms", "lower", 0},
	{"serve.store.loads", "count", "lower", 0},
	{"serve.store.evictions", "count", "lower", 0},
	{"serve.store.compactions", "count", "lower", 0},
	{"serve.store.patches", "count", "higher", 0},
	{"serve.store.resident_mb", "MB", "lower", 0},
	{"serve.limiter.wait_ms_p99", "ms", "lower", 0},
	{"serve.limiter.queued_total", "count", "lower", 0},
	{"serve.limiter.shed", "count", "lower", 0},
	{"serve.query_cache.hit_ratio", "ratio", "higher", 0},
	{"serve.query_cache.shared", "count", "higher", 0},
	{"serve.query_cache.evictions", "count", "lower", 0},
	{"serve.query_cache.hit_us_p50", "us", "lower", 0},
	{"serve.sparsify_cache.hit_ratio", "ratio", "higher", 0},
	{"serve.batcher.riders_per_flight", "ratio", "higher", 0},
	{"serve.batcher.wait_ms_p50", "ms", "lower", 0},
	{"serve.world_cache.hit_ratio", "ratio", "higher", 0},
	{"serve.world_cache.evictions", "count", "lower", 0},
	{"serve.world_cache.hit_us_p50", "us", "lower", 0},
	{"ugraph.fill_ms_p50", "ms", "lower", 0},
	{"ugraph.fill_share", "ratio", "lower", 0},
	{"ugraph.apply_edits_ms_p50", "ms", "lower", 0},
	{"queries.estimate_ms_p50", "ms", "lower", 0},
	{"queries.traverse_ms_p50", "ms", "lower", 0},
	{"queries.arc_worlds_per_s", "1/s", "higher", 0},
	{"queries.planner.lanes.s10k", "lanes", "higher", 0},
	{"queries.planner.lanes.s10k-b", "lanes", "higher", 0},
	{"queries.planner.lanes.s10k-c", "lanes", "higher", 0},
	{"queries.planner.fan_out.s10k", "sources", "higher", 0},
	{"queries.planner.fan_out.s10k-b", "sources", "higher", 0},
	{"queries.planner.fan_out.s10k-c", "sources", "higher", 0},
	{"queries.planner.first_query_ms_p50", "ms", "lower", 0},
	{"core.sparsify_ms_p50.gdb", "ms", "lower", 0},
	{"core.sparsify_ms_p50.emd", "ms", "lower", 0},
	{"core.sparsify_ms_p50.ni", "ms", "lower", 0},
	{"core.sparsify_ms_p50.ss", "ms", "lower", 0},
	{"core.edge_visits.gdb", "count", "lower", 0},
	{"core.edge_visits.emd", "count", "lower", 0},
	{"core.repair_ms_p50.1", "ms", "lower", 0},
	{"core.repair_ms_p50.16", "ms", "lower", 0},
	{"core.repair_ms_p50.64", "ms", "lower", 0},
	{"core.repair_self_ms_p50", "ms", "lower", 0},
	{"core.repair_dirty_vertices_p50", "count", "lower", 0},
	{"core.repair_edge_visits_p50", "count", "lower", 0},
	{"ugsb.open_ms", "ms", "lower", 0},
	{"ugsb.open_trusted_ms", "ms", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.goroutines_end", "count", "lower", 0},
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"loadgen.ops_attempted", "count", "higher", 0},
	{"trace.latency_p50_ms", "ms", "lower", 0},
	{"trace.latency_p99_ms", "ms", "lower", 0},
}

// metricByName finds a metric definition in either table.
func metricByName(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; it is not modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples:
// ⌈p·n/100⌉, at least 1. The tolerance keeps 99.9% of 10000 at 9990 despite
// the float error in 99.9/100.
func nearestRank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailPercentiles is the ladder of tail percentiles the benchmark reports,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedPercentile is the highest percentile on the ladder that leaves at
// least ten of n samples beyond it — the highest tail a sample of n supports.
// 0 when even the median is unsupported.
func supportedPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	q := quartileCuts(xs)
	return q[1]
}

// quartiles returns the first and third quartile of xs, computed exactly as
// Python's statistics.quantiles(xs, n=4) does — the rule run-to-run spread is
// judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	q := quartileCuts(xs)
	return q[0], q[2]
}

// quartileCuts is statistics.quantiles(xs, n=4, method="exclusive"): cut i
// sits at position i·(len+1)/4 of the sorted data, interpolated between its
// neighbours with the index clamped to 1..len-1. A single sample is its own
// quartiles; an empty slice gives NaNs.
func quartileCuts(xs []float64) [3]float64 {
	ld := len(xs)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	var cuts [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		cuts[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cuts
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}
