package main

import (
	"math"
	"testing"
)

func TestSupportedPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // even the median leaves only 9 beyond
		{20, 50},   // rank 10 of 20: ten beyond
		{100, 90},  // p95 would leave 5
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves exactly 10
		{999, 95},  // p99 leaves 9
		{1000, 99}, // p99 leaves exactly 10: the smallest run that supports p99
		{9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 {
			if beyond := c.n - nearestRank(c.want, c.n); beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, c.want, beyond)
			}
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted input
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The expected cuts are Python's statistics.quantiles(xs, n=4), the rule
// the run-to-run spread is judged by.
func TestQuartileCutsMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7}, [3]float64{1.625, 3.5, 8}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	}
	for _, c := range cases {
		got := quartileCuts(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartileCuts(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestUnionCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{Start: 10, End: 20},
		{Start: 15, End: 30},
		{Start: 40, End: 50},
		{Start: 0, End: 5},
	}
	if got := union(spans, []int{0, 1, 2, 3}, 0, 100); got != 5+20+10 {
		t.Errorf("union = %d, want 35", got)
	}
	if got := union(spans, []int{0, 1, 2}, 12, 45); got != 18+5 {
		t.Errorf("clipped union = %d, want 23", got)
	}
}
