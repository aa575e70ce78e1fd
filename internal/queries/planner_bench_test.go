package queries

import (
	"fmt"
	"math/rand"
	"testing"

	"ugs/internal/gen"
	"ugs/internal/mc"
	"ugs/internal/ugraph"
)

// BenchmarkPlannerGrid times the planner's automatic shape against each
// engine shape it can pick — 64 lanes one source per traversal, 64 lanes
// eight sources per traversal (full groups only), 256 lanes one source per
// traversal — over
// the grid the rule was fitted on, on the s10k- and s100k-size social
// graphs of the benchmark of record (10k and 100k edges) and the committed
// sample-social corpus graph (3k edges):
//
//   - reliability with one target per source (the paper's random pairs) at
//     {4, 16} distinct sources × {1, 4, 8, 128, 512} samples: every pair
//     runs a pair search, so these rows time the lane width of pair
//     searches;
//   - reliability with eight targets per source at {4, 8, 13} sources ×
//     {1, 4, 8, 128, 512} samples: every pair rides a source traversal, so
//     these rows time the width and fan-out of source traversals (the
//     shapes' fan-outs apply to these only); at 64 lanes fan-out 8 runs no
//     group for 4 sources, and one group plus five sources on their own
//     for 13;
//   - connectivity at {1, 4, 8, 128, 512} samples.
//
// Budgets of at most 8 samples cannot fill 256 lanes, so their rows time
// the scalar reference (Lanes: 1, one BFS per source per world) in that
// column instead: the shape the rule gave up for them.
//
// Adaptive reliability at CI half-width 0.1 (one 128-sample round) and 0.02
// (doubling rounds up to 4096 samples) checks the per-round plan; an
// explicit shape pins every round. Every shape returns bit-identical
// estimates; only ns/op differs. The auto row of each point must stay close
// to the fastest explicit row. Which pairs run pair searches
// (pairSearchTargets) is fitted by BenchmarkPairSearch and by running these
// rows with the cutoff moved.
//
//	go test -run '^$' -bench PlannerGrid -count 5 ./internal/queries
func BenchmarkPlannerGrid(b *testing.B) {
	graphs := []struct {
		name string
		load func() (*ugraph.Graph, error)
	}{
		{"s10k", socialGraph(1000)},
		{"s100k", socialGraph(10000)},
		{"sample-social", func() (*ugraph.Graph, error) {
			return ugraph.OpenMapped("../../examples/corpus/sample-social.ugsb")
		}},
	}
	type shape struct {
		name       string
		lanes, fan int
	}
	wide := []shape{{"auto", 0, 0}, {"64x1", 64, 1}, {"64x8", 64, 8}, {"256x1", 256, 1}}
	small := []shape{{"auto", 0, 0}, {"64x1", 64, 1}, {"64x8", 64, 8}, {"scalar", 1, 0}}
	budgets := []struct {
		name    string
		samples int
		target  *mc.Target
		shapes  []shape
	}{
		{"1", 1, nil, small},
		{"4", 4, nil, small},
		{"8", 8, nil, small},
		{"128", 128, nil, wide},
		{"512", 512, nil, wide},
		{"eps0.1", 0, mc.WithConfidence(0.1, 0.05), wide},
		{"eps0.02", 0, mc.WithConfidence(0.02, 0.05), wide},
	}
	pairSets := []struct{ sources, targets int }{{4, 1}, {16, 1}, {4, 8}, {8, 8}, {13, 8}}
	for _, gr := range graphs {
		b.Run(gr.name, func(b *testing.B) {
			g, err := gr.load()
			if err != nil {
				b.Fatal(err)
			}
			for _, bu := range budgets {
				if bu.name == "eps0.02" && gr.name == "s100k" {
					// Up to 4096 samples: 2.5–5 s per shape on 100k edges,
					// past the grid's 15 s budget at -benchtime=1x.
					continue
				}
				for _, ps := range pairSets {
					if ps.targets > 1 && bu.target != nil {
						continue // the source-traversal rows keep to fixed budgets
					}
					pairs := manyTargetPairs(g.NumVertices(), ps.sources, ps.targets)
					name := fmt.Sprintf("%dsrc", ps.sources)
					if ps.targets > 1 {
						name += fmt.Sprintf("x%dtgt", ps.targets)
					}
					for _, sh := range bu.shapes {
						opts := mc.Options{Samples: bu.samples, Target: bu.target, Seed: 1, Lanes: sh.lanes, FanOut: sh.fan}
						b.Run(fmt.Sprintf("rl/%s/%s/%s", name, bu.name, sh.name), func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								if _, err := Reliability(bg(), g, pairs, opts); err != nil {
									b.Fatal(err)
								}
							}
						})
					}
				}
			}
			for _, bu := range budgets {
				if bu.target != nil {
					continue
				}
				for _, sh := range bu.shapes {
					if sh.fan > 1 {
						continue // connectivity traverses from one source
					}
					opts := mc.Options{Samples: bu.samples, Seed: 1, Lanes: sh.lanes}
					b.Run(fmt.Sprintf("conn/%s/%s", bu.name, sh.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if _, err := ConnectedProbability(bg(), g, opts); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}

// socialGraph builds the benchmark of record's GenerateSocial fixture with
// n vertices (average degree 20, so 10n edges).
func socialGraph(n int) func() (*ugraph.Graph, error) {
	return func() (*ugraph.Graph, error) {
		return gen.Social(gen.SocialConfig{N: n, AvgDegree: 20, MeanProb: 0.09, Seed: 7})
	}
}

// manyTargetPairs draws targets random pairs from each of nsrc distinct
// random sources. With one target per source it draws the same pairs for a
// given nsrc at every revision of the grid, so rows stay comparable.
func manyTargetPairs(n, nsrc, targets int) []Pair {
	seed := int64(nsrc)
	if targets > 1 {
		seed = int64(nsrc*1000 + targets)
	}
	rng := rand.New(rand.NewSource(seed))
	var pairs []Pair
	for _, s := range rng.Perm(n)[:nsrc] {
		for range targets {
			t := rng.Intn(n - 1)
			if t >= s {
				t++
			}
			pairs = append(pairs, Pair{S: s, T: t})
		}
	}
	return pairs
}
