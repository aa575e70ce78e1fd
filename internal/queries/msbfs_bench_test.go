package queries

import (
	"testing"

	"ugs/internal/ugraph"
)

// benchMSReachFrom measures one round of source traversals per iteration
// over the same nsrc sources: fan=1 runs one MaskBFS per source, fan=8
// (64 lanes only) one MSBFS per group of eight. ns/op at equal width is
// directly comparable — both settle the identical (source, lane) state.
func benchMSReachFrom[V ugraph.Vec](b *testing.B, g *ugraph.Graph, fan, nsrc int) {
	wb := ugraph.NewWorldBatch[V](g)
	seeds := make([]int64, ugraph.VecLanes[V]())
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ugraph.SampleBatchSeeded(g, seeds, wb)
	n := g.NumVertices()
	srcs := make([]int, nsrc)
	for i := range srcs {
		srcs[i] = i * n / nsrc
	}
	b.ReportAllocs()
	b.ResetTimer()
	if fan == 1 {
		bfs := NewMaskBFS[V](n)
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				bfs.ReachFrom(wb, s)
			}
		}
		return
	}
	ms := NewMSBFS(n)
	wb64 := any(wb).(*ugraph.WorldBatch[ugraph.Vec64])
	for i := 0; i < b.N; i++ {
		for base := 0; base < nsrc; base += groupFanOut {
			ms.ReachFrom(wb64, [groupFanOut]int(srcs[base:]))
		}
	}
}

// BenchmarkMSBFSReachFrom times the source-traversal shapes the batch
// engine runs over 32 sources: one MaskBFS per source at 64 and 256 lanes,
// and groups of eight on the multi-source kernel at 64 lanes.
func BenchmarkMSBFSReachFrom(b *testing.B) {
	g := benchGraph(b)
	b.Run("lanes=64/fan=1", func(b *testing.B) { benchMSReachFrom[ugraph.Vec64](b, g, 1, 32) })
	b.Run("lanes=64/fan=8", func(b *testing.B) { benchMSReachFrom[ugraph.Vec64](b, g, groupFanOut, 32) })
	b.Run("lanes=256/fan=1", func(b *testing.B) { benchMSReachFrom[ugraph.Vec256](b, g, 1, 32) })
}
