package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"ugs/internal/ugraph"
)

// BenchmarkPairSearch times the two routes a pair can take on one world
// batch of the s10k and s100k social graphs, over the same 16 random
// sources: targets=k runs k pair searches per source, source runs the one
// mask-BFS per source those pairs would otherwise share. The routing cutoff
// pairSearchTargets sits where k searches stop beating one traversal; the
// estimator-level check of the cutoff is BenchmarkPlannerGrid.
//
//	go test -run '^$' -bench PairSearch -count 5 ./internal/queries
func BenchmarkPairSearch(b *testing.B) {
	for _, gr := range []struct {
		name string
		n    int
	}{{"s10k", 1000}, {"s100k", 10000}} {
		g, err := socialGraph(gr.n)()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(gr.name+"/lanes=64", func(b *testing.B) { benchPairRoutes[ugraph.Vec64](b, g) })
		b.Run(gr.name+"/lanes=256", func(b *testing.B) { benchPairRoutes[ugraph.Vec256](b, g) })
	}
}

func benchPairRoutes[V ugraph.Vec](b *testing.B, g *ugraph.Graph) {
	n := g.NumVertices()
	seeds := make([]int64, ugraph.VecLanes[V]())
	for l := range seeds {
		seeds[l] = int64(l + 1)
	}
	wb := ugraph.NewWorldBatch[V](g)
	ugraph.SampleBatchSeeded(g, seeds, wb)
	rng := rand.New(rand.NewSource(5))
	const sources, maxTargets = 16, 8
	srcs := rng.Perm(n)[:sources]
	targets := make([][]int, sources)
	for i := range targets {
		for len(targets[i]) < maxTargets {
			if t := rng.Intn(n); t != srcs[i] {
				targets[i] = append(targets[i], t)
			}
		}
	}
	b.Run("source", func(b *testing.B) {
		bfs := NewMaskBFS[V](n)
		for i := 0; i < b.N; i++ {
			for _, s := range srcs {
				bfs.ReachFrom(wb, s)
			}
		}
	})
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		b.Run(fmt.Sprintf("targets=%d", k), func(b *testing.B) {
			ps := NewPairSearch[V](n)
			for i := 0; i < b.N; i++ {
				for j, s := range srcs {
					for _, t := range targets[j][:k] {
						ps.Search(wb, s, t)
					}
				}
			}
		})
	}
}
