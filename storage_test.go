package ugs_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"ugs"
)

// openMappedCopy round-trips g through the .ugsb binary format and opens
// the file as a read-only mapped graph.
func openMappedCopy(t *testing.T, g *ugs.Graph) *ugs.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ugsb")
	if err := ugs.WriteBinaryGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := ugs.OpenMappedGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestMappedSparsifyEquivalence runs every registered sparsifier over a
// heap graph and its memory-mapped binary copy: the outputs must be Equal
// edge for edge, probability bits included — a mapped view is the same
// graph, not an approximation of it.
func TestMappedSparsifyEquivalence(t *testing.T) {
	g := ugs.FlickrLike(300, 7)
	m := openMappedCopy(t, g)
	if !g.Equal(m) {
		t.Fatal("mapped copy differs from original before sparsifying")
	}

	for _, method := range ugs.Methods() {
		t.Run(method, func(t *testing.T) {
			run := func(in *ugs.Graph) (*ugs.Graph, error) {
				sp, err := ugs.Lookup(method, ugs.WithSeed(5))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sp.Sparsify(context.Background(), in, 0.3)
				if err != nil {
					return nil, err
				}
				return res.Graph, nil
			}
			// The registry is process-global, so Methods() can include
			// always-erroring methods registered by other tests: those must
			// fail identically on both views.
			hg, herr := run(g)
			mg, merr := run(m)
			if (herr == nil) != (merr == nil) {
				t.Fatalf("%s: heap err %v, mapped err %v", method, herr, merr)
			}
			if herr != nil {
				return
			}
			if !hg.Equal(mg) {
				t.Fatalf("%s: heap result %v != mapped result %v", method, hg, mg)
			}
		})
	}
}

// TestMappedDynamicEquivalence builds a Dynamic over a heap graph and over
// its memory-mapped binary copy, for both discrepancies, and applies the
// same stream of edit batches to both: a reweight-only batch first (the
// mapped side's first repair copies the mapped graph), then batches of 1,
// 16 and 64 edits. Every RepairStats and every sparsified graph must be
// equal. The repair's resync sums expected degrees over CSR rows, so this
// also checks that a graph read from a file lists its rows in the order
// the in-memory build does.
func TestMappedDynamicEquivalence(t *testing.T) {
	g := ugs.FlickrLike(300, 7)
	m := openMappedCopy(t, g)
	ctx := context.Background()
	for _, dt := range []ugs.Discrepancy{ugs.Absolute, ugs.Relative} {
		t.Run(dt.String(), func(t *testing.T) {
			opts := ugs.DynOptions{Method: ugs.MethodGDB, Discrepancy: dt, Seed: 5}
			hd, err := ugs.NewDynamic(ctx, g, 0.3, opts)
			if err != nil {
				t.Fatal(err)
			}
			md, err := ugs.NewDynamic(ctx, m, 0.3, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			for step, size := range []int{1, 16, 64, 1, 16, 64, 1, 16, 64} {
				batch := randomEditBatch(rng, hd.Graph(), size)
				hs, err := hd.Repair(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := md.Repair(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				if *hs != *ms {
					t.Fatalf("batch %d (%d edits): heap %+v, mapped %+v", step, size, *hs, *ms)
				}
				hg, err := hd.Sparsified()
				if err != nil {
					t.Fatal(err)
				}
				mg, err := md.Sparsified()
				if err != nil {
					t.Fatal(err)
				}
				if !hg.Equal(mg) {
					t.Fatalf("batch %d (%d edits): heap and mapped sparsified graphs differ", step, size)
				}
			}
		})
	}
}

// TestMappedQueryEquivalence checks that the Monte-Carlo estimators are
// bit-identical over heap and mapped views of the same graph.
func TestMappedQueryEquivalence(t *testing.T) {
	g := ugs.TwitterLike(250, 11)
	m := openMappedCopy(t, g)
	ctx := context.Background()
	opts := ugs.MCOptions{Seed: 3, Samples: 256}
	pairs := ugs.RandomPairs(g.NumVertices(), 20, rand.New(rand.NewSource(99)))

	hsp, hrl, err := ugs.ShortestDistanceAndReliability(ctx, g, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	msp, mrl, err := ugs.ShortestDistanceAndReliability(ctx, m, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if hsp[i] != msp[i] && !(hsp[i] != hsp[i] && msp[i] != msp[i]) { // NaN == NaN here
			t.Fatalf("pair %d: distance %v != %v", i, hsp[i], msp[i])
		}
		if hrl[i] != mrl[i] {
			t.Fatalf("pair %d: reliability %v != %v", i, hrl[i], mrl[i])
		}
	}

	hc, err := ugs.ConnectedProbability(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ugs.ConnectedProbability(ctx, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hc != mc {
		t.Fatalf("connected probability %v != %v", hc, mc)
	}

	// Entropy and degree statistics read the probability bits directly.
	if g.Entropy() != m.Entropy() || g.TotalProb() != m.TotalProb() {
		t.Fatal("entropy/total-probability differ between heap and mapped views")
	}
}
