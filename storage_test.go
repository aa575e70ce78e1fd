package ugs_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"ugs"
)

// openMappedCopy round-trips g through the .ugsb binary format and opens
// the file as a read-only mapped graph.
func openMappedCopy(tb testing.TB, g *ugs.Graph) *ugs.Graph {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "g.ugsb")
	if err := ugs.WriteBinaryGraphFile(path, g); err != nil {
		tb.Fatal(err)
	}
	m, err := ugs.OpenMappedGraph(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	return m
}

// BenchmarkLoad times loading the benchmark fixture from the text format
// (parse and CSR build) against opening its .ugsb copy as a memory mapping,
// deep-validated and header-only.
func BenchmarkLoad(b *testing.B) {
	g := benchGraph(b)
	dir := b.TempDir()
	text, bin := filepath.Join(dir, "g.ugs"), filepath.Join(dir, "g.ugsb")
	if err := ugs.WriteGraphFile(text, g); err != nil {
		b.Fatal(err)
	}
	if err := ugs.WriteBinaryGraphFile(bin, g); err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		path string
		load func(string) (*ugs.Graph, error)
	}{
		{"text", text, ugs.ReadGraphFile},
		{"mapped", bin, ugs.OpenMappedGraph},
		{"mapped-trusted", bin, ugs.OpenMappedGraphTrusted},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lg, err := v.load(v.path)
				if err != nil {
					b.Fatal(err)
				}
				lg.Close()
			}
		})
	}
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

// TestDynamicNeverWritesItsInput: a Dynamic edits the graph it repairs in
// place, so it must never write the graph passed to NewDynamic. A Dynamic
// over a heap graph and one over its mapped copy take reweight-only
// batches first (after which a Dynamic that had applied them with
// ApplyEdits would share the heap input's CSR), then structural ones.
// After every repair each input's edge list and every CSR row must still
// equal a clone taken before the stream.
func TestDynamicNeverWritesItsInput(t *testing.T) {
	g := ugs.FlickrLike(300, 11)
	ctx := context.Background()
	for _, in := range []struct {
		name string
		g    *ugs.Graph
	}{{"heap", g}, {"mapped", openMappedCopy(t, g)}} {
		t.Run(in.name, func(t *testing.T) {
			want := in.g.Clone()
			d, err := ugs.NewDynamic(ctx, in.g, 0.3, ugs.DynOptions{Method: ugs.MethodGDB, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			for step, size := range []int{1, 1, 16, 64, 1, 16, 64, 1} {
				if _, err := d.Repair(ctx, randomEditBatch(rng, d.Graph(), size)); err != nil {
					t.Fatal(err)
				}
				if !in.g.Equal(want) {
					t.Fatalf("batch %d (%d edits): the input's edge list changed", step, size)
				}
				for u := 0; u < want.NumVertices(); u++ {
					if !slices.Equal(in.g.Neighbors(u), want.Neighbors(u)) {
						t.Fatalf("batch %d (%d edits): the input's CSR row %d changed", step, size, u)
					}
				}
			}
		})
	}
}

// TestMappedDynamicEquivalence builds a Dynamic over a heap graph and over
// its memory-mapped binary copy, for both discrepancies, and applies the
// same stream of edit batches to both: a reweight-only batch first, then
// batches of 1, 16 and 64 edits. Every RepairStats and every sparsified
// graph must be equal: NewDynamic copies either input onto the heap, and
// the two copies must repair alike bit for bit.
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
