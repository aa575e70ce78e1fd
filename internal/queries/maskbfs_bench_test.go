package queries

import (
	"testing"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// benchGraph is the shared mask-BFS benchmark fixture: dense enough that
// traversals hit the sweep path, small enough that the per-vertex lane
// state stays cache-resident at every width.
func benchGraph(b *testing.B) *ugraph.Graph {
	b.Helper()
	g, err := gen.Social(gen.SocialConfig{N: 300, AvgDegree: 20, MeanProb: 0.3, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchReachFrom measures one full-width traversal per iteration. ns/op
// divided by the lane count is the per-world cost the width sweep is
// chasing: wider vectors amortize the frontier bookkeeping and the arc
// stream walk over more worlds per cache line.
func benchReachFrom[V ugraph.Vec](b *testing.B, g *ugraph.Graph) {
	wb := ugraph.NewWorldBatch[V](g)
	seeds := make([]int64, ugraph.VecLanes[V]())
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ugraph.SampleBatchSeeded(g, seeds, wb)
	bfs := NewMaskBFS[V](g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs.ReachFrom(wb, i%g.NumVertices())
	}
}

func BenchmarkMaskBFSReachFrom(b *testing.B) {
	g := benchGraph(b)
	b.Run("lanes=64", func(b *testing.B) { benchReachFrom[ugraph.Vec64](b, g) })
	b.Run("lanes=256", func(b *testing.B) { benchReachFrom[ugraph.Vec256](b, g) })
}

// benchFill measures the batch sampling path: one full-width fill per
// iteration (so the 256-lane case draws 4× the worlds of the 64-lane one).
func benchFill[V ugraph.Vec](b *testing.B, g *ugraph.Graph) {
	wb := ugraph.NewWorldBatch[V](g)
	seeds := make([]int64, ugraph.VecLanes[V]())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := range seeds {
			seeds[l] = int64(i*len(seeds) + l)
		}
		ugraph.SampleBatchSeeded(g, seeds, wb)
	}
}

func BenchmarkWorldBatchFill(b *testing.B) {
	g := benchGraph(b)
	b.Run("lanes=64", func(b *testing.B) { benchFill[ugraph.Vec64](b, g) })
	b.Run("lanes=256", func(b *testing.B) { benchFill[ugraph.Vec256](b, g) })
}

// benchConnectedLanes times ConnectedLanes on one full-width batch of the
// s10k graph, where some vertex is stranded in every lane, so the screen
// answers without a traversal.
func benchConnectedLanes[V ugraph.Vec](b *testing.B, g *ugraph.Graph) {
	wb := ugraph.NewWorldBatch[V](g)
	seeds := make([]int64, ugraph.VecLanes[V]())
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ugraph.SampleBatchSeeded(g, seeds, wb)
	mb := NewMaskBFS[V](g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.ConnectedLanes(wb)
	}
}

func BenchmarkConnectedLanes(b *testing.B) {
	g, err := socialGraph(1000)()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lanes=64", func(b *testing.B) { benchConnectedLanes[ugraph.Vec64](b, g) })
	b.Run("lanes=256", func(b *testing.B) { benchConnectedLanes[ugraph.Vec256](b, g) })
}
