package queries

import (
	"testing"

	"ugs/internal/ugraph"
)

// benchMSReachFrom measures one grouped traversal per iteration against the
// per-source loop it replaces: fan=1 runs len(srcs) MaskBFS traversals,
// fan>1 runs ceil(len(srcs)/fan) MSBFS passes over the same sources. ns/op
// at equal width is directly comparable — both settle the identical
// (source, lane) state.
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
	if fan <= 1 {
		bfs := NewMaskBFS[V](n)
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				bfs.ReachFrom(wb, s)
			}
		}
		return
	}
	ms := NewMSBFS[V](n, fan)
	for i := 0; i < b.N; i++ {
		for base := 0; base < nsrc; base += fan {
			end := base + fan
			if end > nsrc {
				end = nsrc
			}
			ms.ReachFrom(wb, srcs[base:end])
		}
	}
}

func BenchmarkMSBFSReachFrom(b *testing.B) {
	g := benchGraph(b)
	for _, w := range []struct {
		name string
		run  func(b *testing.B, fan, nsrc int)
	}{
		{"lanes=64", func(b *testing.B, fan, nsrc int) { benchMSReachFrom[ugraph.Vec64](b, g, fan, nsrc) }},
		{"lanes=256", func(b *testing.B, fan, nsrc int) { benchMSReachFrom[ugraph.Vec256](b, g, fan, nsrc) }},
	} {
		for _, fan := range []int{1, 4, 8, 16, 32} {
			name := w.name + "/fan=" + itoa(fan)
			b.Run(name, func(b *testing.B) { w.run(b, fan, 32) })
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
