package queries

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// TestMSRatio is a manually-invoked measurement harness (UGS_MSRATIO=1): it
// interleaves per-source and multi-source passes over the same sources and
// world batch within one process and reports the paired-ratio median, which
// stays meaningful on machines whose clock budget drifts between runs.
func TestMSRatio(t *testing.T) {
	if os.Getenv("UGS_MSRATIO") == "" {
		t.Skip("set UGS_MSRATIO=1 to run the interleaved ratio harness")
	}
	nv := 100000
	if s := os.Getenv("UGS_MSRATIO_N"); s != "" {
		fmt.Sscanf(s, "%d", &nv)
	}
	g, err := gen.Social(gen.SocialConfig{N: nv, AvgDegree: 24, MeanProb: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	wb := ugraph.NewWorldBatch[ugraph.Vec64](g)
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ugraph.SampleBatchSeeded(g, seeds, wb)
	const nsrc = 32
	srcs := make([]int, nsrc)
	for i := range srcs {
		srcs[i] = i * n / nsrc
	}
	// 64 lanes: one MaskBFS per source vs one MSBFS per group of eight.
	bfs := NewMaskBFS[ugraph.Vec64](n)
	ms := NewMSBFS(n)
	var ratios []float64
	for rep := 0; rep < 6; rep++ {
		t0 := time.Now()
		for _, s := range srcs {
			bfs.ReachFrom(wb, s)
		}
		base := time.Since(t0)
		t1 := time.Now()
		for b := 0; b < nsrc; b += groupFanOut {
			ms.ReachFrom(wb, [groupFanOut]int(srcs[b:]))
		}
		multi := time.Since(t1)
		r := float64(base) / float64(multi)
		ratios = append(ratios, r)
		fmt.Printf("fan=%d rep=%d base=%v multi=%v ratio=%.2f\n", groupFanOut, rep, base, multi, r)
	}
	sort.Float64s(ratios)
	fmt.Printf("fan=%d median ratio %.2f\n", groupFanOut, ratios[len(ratios)/2])
}
