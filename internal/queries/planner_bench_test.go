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
// eight sources per traversal, 256 lanes one source per traversal — over
// the grid the rule was fitted on: reliability at {4, 16} distinct sources
// × {128, 512} samples and connectivity at {128, 512} samples, on the
// s10k- and s100k-size social graphs of the benchmark of record (10k and
// 100k edges) and the committed sample-social corpus graph (3k edges).
// Adaptive reliability at CI half-width 0.1 (one 128-sample round) and 0.02
// (doubling rounds up to 4096 samples) checks the per-round plan; an
// explicit shape pins every round. Every shape returns bit-identical
// estimates; only ns/op differs. The auto row of each point must stay close
// to the fastest explicit row.
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
	shapes := []struct {
		name       string
		lanes, fan int
	}{{"auto", 0, 0}, {"64x1", 64, 1}, {"64x8", 64, 8}, {"256x1", 256, 1}}
	budgets := []struct {
		name    string
		samples int
		target  *mc.Target
	}{
		{"128", 128, nil},
		{"512", 512, nil},
		{"eps0.1", 0, mc.WithConfidence(0.1, 0.05)},
		{"eps0.02", 0, mc.WithConfidence(0.02, 0.05)},
	}
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
				for _, nsrc := range []int{4, 16} {
					pairs := distinctSourcePairs(g.NumVertices(), nsrc)
					for _, sh := range shapes {
						opts := mc.Options{Samples: bu.samples, Target: bu.target, Seed: 1, Lanes: sh.lanes, FanOut: sh.fan}
						b.Run(fmt.Sprintf("rl/%dsrc/%s/%s", nsrc, bu.name, sh.name), func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								if _, err := Reliability(bg(), g, pairs, opts); err != nil {
									b.Fatal(err)
								}
							}
						})
					}
				}
			}
			for _, samples := range []int{128, 512} {
				for _, sh := range shapes {
					if sh.fan > 1 {
						continue // connectivity traverses from one source
					}
					opts := mc.Options{Samples: samples, Seed: 1, Lanes: sh.lanes}
					b.Run(fmt.Sprintf("conn/%d/%s", samples, sh.name), func(b *testing.B) {
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

// distinctSourcePairs draws nsrc pairs with nsrc distinct random sources.
func distinctSourcePairs(n, nsrc int) []Pair {
	rng := rand.New(rand.NewSource(int64(nsrc)))
	pairs := make([]Pair, nsrc)
	for i, s := range rng.Perm(n)[:nsrc] {
		t := rng.Intn(n - 1)
		if t >= s {
			t++
		}
		pairs[i] = Pair{S: s, T: t}
	}
	return pairs
}
