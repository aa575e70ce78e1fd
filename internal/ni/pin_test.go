// The digests below are bit-exact results of unfused float64 arithmetic on
// generated graphs. The gc compiler fuses x*y + z into one FMA instruction
// on arm64, ppc64, s390x, riscv64 and loong64, which rounds differently, so
// the pins are defined for amd64 only.

//go:build amd64

package ni

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ugs/internal/core"
	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// TestNIOutputPinned pins NI's exact output. Each digest is an FNV-64a hash
// over every output edge (endpoints and probability bits), the run's
// RunStats (Iterations, Epsilon bits, AuxEdges) and every Progress
// snapshot. The cases cover the benchmark's s10k graph at three ratios, a
// Flickr-like graph, both calibration directions and the truncation path.
// A digest may change only with a deliberate change to NI's results.
func TestNIOutputPinned(t *testing.T) {
	s10k, err := gen.Social(gen.SocialConfig{N: 1000, AvgDegree: 20, MeanProb: 0.09, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cb := ugraph.NewBuilder(20)
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			if err := cb.AddEdge(u, v, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	clique := cb.Graph()
	cases := []struct {
		name  string
		g     *ugraph.Graph
		alpha float64
		opts  Options
		want  uint64
	}{
		{"s10k/0.16", s10k, 0.16, Options{Seed: 1}, 0xe3bb637f498d5915},
		{"s10k/0.3", s10k, 0.3, Options{Seed: 1}, 0x909df77623a4bb43},
		{"s10k/0.64", s10k, 0.64, Options{Seed: 1}, 0xcb2b7d56c0e0f8d6},
		{"flickr300/0.16", gen.FlickrLike(300, 42), 0.16, Options{Seed: 1}, 0x7ea5bede00f6eff9},
		// TestSparsifyTruncatesWhenCalibrationExhausted's set-up.
		{"clique/truncate", clique, 0.05, Options{Seed: 1, MaxCalibrations: 1, Theta: 1e-12}, 0x6c99f8ab042f4f59},
		// TestSparsifyCalibrationShrinksEpsilonWhenUnderBudget's set-up.
		{"random40/shrink", randomConnectedGraph(rand.New(rand.NewSource(9)), 40, 0.4), 0.64, Options{Seed: 2}, 0x43c0b970a689949b},
	}
	for _, c := range cases {
		d := &niDigest{Hash64: fnv.New64a()}
		opts := c.opts
		opts.Progress = d.stats
		out, st, err := Sparsify(context.Background(), c.g, c.alpha, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d.u64(uint64(out.NumEdges()))
		for _, e := range out.Edges() {
			d.u64(uint64(e.U))
			d.u64(uint64(e.V))
			d.u64(math.Float64bits(e.P))
		}
		d.stats(*st)
		if got := d.Sum64(); got != c.want {
			t.Errorf("%s: digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}

type niDigest struct {
	hash.Hash64
	buf [8]byte
}

func (d *niDigest) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.Write(d.buf[:])
}

// stats hashes the fields NI reports, for the final RunStats and for each
// Progress snapshot alike.
func (d *niDigest) stats(st core.RunStats) {
	d.u64(uint64(st.Iterations))
	d.u64(math.Float64bits(st.Epsilon))
	d.u64(uint64(st.AuxEdges))
}
