package ugs_test

// Integration tests of the public API: the full pipeline a downstream user
// runs — generate or load a graph, sparsify it, evaluate queries on both
// graphs, and compare distributions.

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"ugs"
)

// must unwraps an estimator's (value, error) pair where the error can only
// come from context cancellation, which these tests never trigger.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// must2 is must for the two-value ShortestDistanceAndReliability estimator.
func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// sparsify runs the registered method on g at ratio alpha.
func sparsify(t *testing.T, g *ugs.Graph, alpha float64, method string, opts ...ugs.Option) *ugs.Graph {
	t.Helper()
	sp, err := ugs.Lookup(method, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Sparsify(context.Background(), g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func TestEndToEndPipelineAllMethods(t *testing.T) {
	g := ugs.TwitterLike(150, 7)
	rng := rand.New(rand.NewSource(7))
	pairs := ugs.RandomPairs(g.NumVertices(), 40, rng)
	opts := ugs.MCOptions{Samples: 60, Seed: 9}

	ctx := context.Background()
	prBase := must(ugs.ExpectedPageRank(ctx, g, opts, ugs.PageRankOptions{}))
	spBase, rlBase := must2(ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts))
	ccBase := must(ugs.ExpectedClusteringCoefficients(ctx, g, opts))

	type method struct {
		name string
		opts []ugs.Option
	}
	methods := []method{
		{"gdb", nil},
		{"emd", []ugs.Option{ugs.WithDiscrepancy(ugs.Relative)}},
		{"ni", nil},
		{"ss", nil},
	}

	for _, m := range methods {
		m := m
		t.Run(m.name, func(t *testing.T) {
			sparsifier, err := ugs.Lookup(m.name, append(m.opts, ugs.WithSeed(1))...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sparsifier.Sparsify(context.Background(), g, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			sparse := res.Graph
			if sparse.NumEdges() >= g.NumEdges() {
				t.Fatal("no sparsification happened")
			}

			pr := must(ugs.ExpectedPageRank(ctx, sparse, opts, ugs.PageRankOptions{}))
			sp, rl := must2(ugs.ShortestDistanceAndReliability(ctx, sparse, pairs, opts))
			cc := must(ugs.ExpectedClusteringCoefficients(ctx, sparse, opts))

			for name, d := range map[string]float64{
				"PR": ugs.EarthMovers(prBase, pr),
				"SP": ugs.EarthMovers(spBase, sp),
				"RL": ugs.EarthMovers(rlBase, rl),
				"CC": ugs.EarthMovers(ccBase, cc),
			} {
				if math.IsNaN(d) || d < 0 {
					t.Errorf("%s: D_em = %v", name, d)
				}
			}
		})
	}
}

func TestProposedMethodsBeatBenchmarksOnDegrees(t *testing.T) {
	// The paper's headline: GDB/EMD preserve expected degrees far better
	// than the deterministic adaptations (Figure 6).
	g := ugs.FlickrLike(200, 11)
	const alpha = 0.16
	gdb := sparsify(t, g, alpha, "gdb", ugs.WithSeed(2))
	nig := sparsify(t, g, alpha, "ni", ugs.WithSeed(2))
	ssg := sparsify(t, g, alpha, "ss", ugs.WithSeed(2))
	gdbMAE := ugs.MAEDegreeDiscrepancy(g, gdb, ugs.Absolute)
	niMAE := ugs.MAEDegreeDiscrepancy(g, nig, ugs.Absolute)
	ssMAE := ugs.MAEDegreeDiscrepancy(g, ssg, ugs.Absolute)
	if gdbMAE >= niMAE {
		t.Errorf("GDB MAE %v not below NI %v", gdbMAE, niMAE)
	}
	if gdbMAE >= ssMAE {
		t.Errorf("GDB MAE %v not below SS %v", gdbMAE, ssMAE)
	}
}

func TestEntropyReductionLowersVariance(t *testing.T) {
	// Section 6.3: entropy reduction lowers MC-estimator variance,
	// shrinking the samples needed for a given confidence width.
	g := ugs.FlickrLike(150, 13)
	sparse := sparsify(t, g, 0.16, "gdb", ugs.WithSeed(3))
	if ugs.RelativeEntropy(sparse, g) >= 1 {
		t.Fatalf("entropy not reduced: ratio %v", ugs.RelativeEntropy(sparse, g))
	}
	rng := rand.New(rand.NewSource(13))
	pairs := ugs.RandomPairs(g.NumVertices(), 30, rng)
	est := func(target *ugs.Graph) func(int) float64 {
		return func(run int) float64 {
			rl := must(ugs.Reliability(context.Background(), target, pairs, ugs.MCOptions{Samples: 40, Seed: int64(run)*31 + 1}))
			var s float64
			for _, x := range rl {
				s += x
			}
			return s / float64(len(rl))
		}
	}
	_, varOrig := ugs.EstimatorVariance(12, est(g))
	_, varSparse := ugs.EstimatorVariance(12, est(sparse))
	// The sparsified estimator should not need more samples; allow slack
	// for MC noise at test scale.
	if varSparse > 3*varOrig {
		t.Errorf("sparsified variance %v far above original %v", varSparse, varOrig)
	}
	if n := ugs.SamplesForWidth(math.Sqrt(varSparse), 0.01); n <= 0 {
		t.Errorf("SamplesForWidth = %d", n)
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := ugs.TwitterLike(60, 17)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := ugs.WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ugs.ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(got) {
		t.Error("facade round trip mismatch")
	}
}

func TestSparsifyPreservesConnectivityWithSpanningBackbone(t *testing.T) {
	g := ugs.FlickrLike(150, 19)
	if !g.IsConnected() {
		t.Fatal("generator returned disconnected graph")
	}
	sparse := sparsify(t, g, 0.1, "gdb", ugs.WithBackbone(ugs.BackboneSpanning), ugs.WithSeed(5))
	if !sparse.IsConnected() {
		t.Error("spanning backbone did not preserve connectivity")
	}
}

func TestSparsifiedOutputWithZeroProbEdgeRoundTripsAndResparsifies(t *testing.T) {
	// Regression for the ROADMAP wart: sparsifiers can drive an edge's
	// probability to exactly 0 (the ⌊0·⌉1 clamp), and such graphs used to
	// be unreadable by a second Sparsify pass. Write now drops p = 0
	// edges, so write → read → Sparsify must succeed.
	g := ugs.TwitterLike(80, 21)
	g.SetProb(0, 0) // emulate a sparsifier output retaining a dead edge
	path := filepath.Join(t.TempDir(), "sparse.txt")
	if err := ugs.WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ugs.ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges()-1 {
		t.Fatalf("re-read graph has %d edges, want %d (p=0 edge dropped)", back.NumEdges(), g.NumEdges()-1)
	}
	sp, err := ugs.Lookup("gdb", ugs.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Sparsify(context.Background(), back, 0.5)
	if err != nil {
		t.Fatalf("re-sparsifying a written sparsifier output failed: %v", err)
	}
	if res.Graph.NumEdges() >= back.NumEdges() {
		t.Error("second sparsification pass did not reduce the edge count")
	}
}
