package mc

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"

	"ugs/internal/ugraph"
)

// Options configures a Monte-Carlo run.
type Options struct {
	// Samples is the number of possible worlds to draw on the fixed-budget
	// path. Default 500 (the paper's query-evaluation setting); negative
	// values are rejected by Validate. When Target is set, Samples is
	// ignored — the sequential-stopping schedule decides the budget.
	Samples int
	// Seed makes runs reproducible. Sample i is always drawn from a
	// deterministic function of (Seed, Offset+i), so results do not depend
	// on scheduling or Workers.
	Seed int64
	// Workers is the parallelism; 0 means GOMAXPROCS.
	Workers int
	// Lanes selects the batch width for estimators that support the
	// bit-parallel engine (reliability, shortest distance, connectivity):
	// 0 is automatic (a fixed rule over the query kind and sample budget),
	// 1 is the scalar one-world-per-traversal ablation, and 64 or 256
	// select an explicit WorldBatch width. The width is an execution
	// choice only — estimates are bit-identical across all of them.
	Lanes int
	// FanOut selects how many distinct query sources a pair estimator's
	// source traversal carries at once: 0 is automatic (a fixed rule over
	// the lane width and the distinct-source count), 1 forces one traversal
	// per source (the per-source ablation), and 8 pins groups of eight. At
	// batch widths only 64 lanes group, and only full groups of eight, so
	// there 8 plans as auto; on scalar worlds it pins groups of up to eight
	// where auto groups up to 64. It applies to source traversals only: at
	// batch widths a pair whose source has few targets runs a pair search
	// instead, whatever the fan-out. Like Lanes, it is an execution choice
	// only — per-pair estimates are bit-identical across every fan-out.
	FanOut int
	// Target, when non-nil, switches supporting estimators from the fixed
	// Samples budget to sequential stopping: batches are drawn in
	// deterministic rounds until the normal-approximation confidence
	// interval of every tracked estimate has half-width ≤ Target.Eps at
	// confidence 1−Target.Delta (or Target.MaxSamples is hit).
	Target *Target
	// Offset shifts the deterministic sample stream: sample i of this run
	// draws from (Seed, Offset+i). The adaptive runner uses it to extend a
	// run round by round without redrawing earlier samples; it is not a
	// result-space knob (two runs covering the same stream indices agree).
	Offset int
	// FillCache, when non-nil together with a non-empty FillID, lets the
	// batch engine reuse sampled 64-lane fill blocks across runs: full
	// 64-aligned blocks are fetched from (or inserted into) the cache
	// keyed by (FillID, Seed, block index) instead of re-sampled. FillID
	// must identify the graph's exact content (a content-versioned name);
	// results are bit-identical with and without a cache.
	FillCache ugraph.FillCache
	FillID    string
}

// Typed validation errors: each nonsensical Options combination is rejected
// with an error wrapping one of these sentinels, so callers can map them to
// request-level failures with errors.Is.
var (
	// ErrSampleCount rejects negative fixed sample budgets and negative
	// stream offsets — runs that would silently produce empty or undefined
	// estimates.
	ErrSampleCount = errors.New("mc: invalid sample count")
	// ErrLaneWidth rejects lane widths outside {0 (auto), 1 (scalar), 64,
	// 256}.
	ErrLaneWidth = errors.New("mc: invalid lane width")
	// ErrScalarTarget rejects a confidence target combined with the scalar
	// ablation (Lanes: 1): sequential stopping plans each round's engine
	// from that round's budget rather than pinning the ablation.
	ErrScalarTarget = errors.New("mc: confidence target requires the batch engine")
	// ErrConfidence rejects confidence targets with out-of-range Eps,
	// Delta or an empty sample schedule.
	ErrConfidence = errors.New("mc: invalid confidence target")
	// ErrSourceFanOut rejects fan-outs other than 0 (auto), 1 (per-source)
	// and 8, the one group size of the batch multi-source kernel.
	ErrSourceFanOut = errors.New("mc: invalid source fan-out")
)

// Validate rejects nonsensical option combinations with typed errors
// (wrapping the Err* sentinels above). The engine entry points call it, so
// estimators fail fast instead of silently running a meaningless
// configuration.
func (o Options) Validate() error {
	if o.Samples < 0 {
		return fmt.Errorf("%w: fixed run with %d samples", ErrSampleCount, o.Samples)
	}
	if o.Offset < 0 {
		return fmt.Errorf("%w: negative stream offset %d", ErrSampleCount, o.Offset)
	}
	switch o.Lanes {
	case 0, 1, ugraph.BatchLanes, ugraph.MaxBatchLanes:
	default:
		return fmt.Errorf("%w: %d (want auto=0, 1, 64 or 256)", ErrLaneWidth, o.Lanes)
	}
	switch o.FanOut {
	case 0, 1, 8:
	default:
		return fmt.Errorf("%w: %d (want auto=0, 1 or 8)", ErrSourceFanOut, o.FanOut)
	}
	if o.Target != nil {
		if o.Lanes == 1 {
			return fmt.Errorf("%w: remove the Lanes: 1 ablation or the Target", ErrScalarTarget)
		}
		if err := o.Target.validate(); err != nil {
			return err
		}
	}
	return nil
}

// WithDefaults returns o with zero fields replaced by their defaults
// (Samples 500, Workers GOMAXPROCS). It is idempotent; estimators apply it
// once so the sample count they normalize by matches the engine's.
func (o Options) WithDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 500
	}
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	return o
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ParseLanes resolves a -lanes flag value: "auto" (or "") is the planner,
// "1" the scalar ablation, "64"/"256" the explicit batch widths.
func ParseLanes(s string) (int, error) {
	switch s {
	case "", "auto":
		return 0, nil
	case "1", "64", "256":
		n, _ := strconv.Atoi(s)
		return n, nil
	}
	return 0, fmt.Errorf("%w: %q (want auto, 1, 64 or 256)", ErrLaneWidth, s)
}

// FormatLanes is the inverse of ParseLanes.
func FormatLanes(lanes int) string {
	if lanes == 0 {
		return "auto"
	}
	return strconv.Itoa(lanes)
}

// ParseFanOut resolves a -fan-out flag value: "auto" (or "") leaves the
// group size of source traversals to the planner, "1" forces the
// per-source ablation, and "8" pins groups of eight sources (see
// Options.FanOut). Pairs routed to pair searches ignore it.
func ParseFanOut(s string) (int, error) {
	switch s {
	case "", "auto":
		return 0, nil
	case "1", "8":
		n, _ := strconv.Atoi(s)
		return n, nil
	}
	return 0, fmt.Errorf("%w: %q (want auto, 1 or 8)", ErrSourceFanOut, s)
}

// FormatFanOut is the inverse of ParseFanOut.
func FormatFanOut(fan int) string {
	if fan == 0 {
		return "auto"
	}
	return strconv.Itoa(fan)
}
