package ugraph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// The SplitMix64 increment and the odd multipliers of Sampler.Uint64.
const (
	smGamma = 0x9E3779B97F4A7C15
	smMul1  = 0xBF58476D1CE4E5B9
	smMul2  = 0x94D049BB133111EB
)

// seedForDraw returns the seed whose stream's draw number e (0-based, one
// per edge) is z: it inverts Sampler.Uint64's mix and steps the state back
// over e+1 increments.
func seedForDraw(z uint64, e int) int64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for s := k; s < 64; s += k {
			x ^= y >> s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // Newton's iteration mod 2^64
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31) * inverse(smMul2)
	z = unshift(z, 27) * inverse(smMul1)
	z = unshift(z, 30)
	return int64(z - uint64(e+1)*smGamma)
}

// boundaryProbs are thresholds k·2⁻⁵³ and their float neighbours: a draw
// whose top 53 bits equal k is absent at P = k·2⁻⁵³ and present one ulp
// above it, so a compare that rounds or uses ≤ shows.
func boundaryProbs() (ps []float64, ks []uint64) {
	for _, k := range []uint64{1, 3, 1 << 30, 1<<52 + 1, 1<<53 - 1} {
		p := float64(k) * 0x1p-53
		ps = append(ps, math.Nextafter(p, 0), p, math.Nextafter(p, 2))
		ks = append(ks, k, k, k)
	}
	return ps, ks
}

// fillKernelGraph returns a path with m edges whose P alternate between
// uniform draws and every value a float64 P can legally or illegally hold
// (0, −0, 1, the largest float below 1, the smallest subnormal, NaN, values
// above 1, ±Inf, negatives, and the boundary thresholds), written straight
// onto the edge records as SetProb and OpenMappedTrusted allow. It also
// returns 64 lane seeds, of which the first lanes are chosen so that their
// draw on a boundary edge lands exactly on k−1, k or k+1.
func fillKernelGraph(rng *rand.Rand, m int) (*Graph, []int64) {
	specials := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 0),
		math.SmallestNonzeroFloat64, math.NaN(), 1.5, math.Inf(1), math.Inf(-1),
		-0.25, math.MaxFloat64}
	bps, bks := boundaryProbs()
	g := pathGraph(m, 0.5)
	boundaryEdge := make([]int, len(bps))
	for i := range boundaryEdge {
		boundaryEdge[i] = -1
	}
	for e := range g.edges {
		p := rng.Float64()
		if e%2 == 0 {
			j := e / 2 % (len(specials) + len(bps))
			if j < len(specials) {
				p = specials[j]
			} else {
				p = bps[j-len(specials)]
				if boundaryEdge[j-len(specials)] < 0 {
					boundaryEdge[j-len(specials)] = e
				}
			}
		}
		g.edges[e].P = p
	}
	seeds := make([]int64, BatchLanes)
	for l := range seeds {
		seeds[l] = rng.Int63()
	}
	l := 0
	for j, e := range boundaryEdge {
		for d := uint64(0); d < 3 && e >= 0; d++ {
			top := bks[j] - 1 + d // k−1, k, k+1
			seeds[l] = seedForDraw(top<<11|rng.Uint64()&(1<<11-1), e)
			l++
		}
	}
	return g, seeds
}

// checkFillMatchesPortable compares FillBlock and both batch widths on g
// against fillLanesPortable, for every lane count 1..64 at Vec64 and a set
// of ragged counts at Vec256.
func checkFillMatchesPortable(t *testing.T, g *Graph, seeds []int64, label string) {
	t.Helper()
	m := g.NumEdges()
	ref := func(s []int64) []uint64 {
		dst := make([]uint64, m)
		fillLanesPortable(g.edges, s, dst, 1)
		return dst
	}
	block := make([]uint64, m)
	b64 := NewWorldBatch[Vec64](g)
	for lanes := 1; lanes <= BatchLanes; lanes++ {
		want := ref(seeds[:lanes])
		for e := range block {
			block[e] = ^uint64(0) // FillBlock must overwrite, inactive bits too
		}
		FillBlock(g, seeds[:lanes], block)
		SampleBatchSeeded(g, seeds[:lanes], b64)
		for e := 0; e < m; e++ {
			if block[e] != want[e] || b64.masks[e][0] != want[e] {
				t.Fatalf("%s lanes=%d edge %d (P=%v): FillBlock %064b, Vec64 batch %064b, portable %064b",
					label, lanes, e, g.edges[e].P, block[e], b64.masks[e][0], want[e])
			}
		}
	}
	wide := make([]int64, MaxBatchLanes)
	for w := range wide {
		wide[w] = seeds[w%BatchLanes] ^ int64(w/BatchLanes)<<40
	}
	b256 := NewWorldBatch[Vec256](g)
	for _, lanes := range []int{1, 63, 64, 65, 128, 130, 200, 256} {
		SampleBatchSeeded(g, wide[:lanes], b256)
		for k := 0; k < 4; k++ {
			want := make([]uint64, m)
			if lo := k * BatchLanes; lo < lanes {
				want = ref(wide[lo:min(lanes, lo+BatchLanes)])
			}
			for e := 0; e < m; e++ {
				if got := b256.masks[e][k]; got != want[e] {
					t.Fatalf("%s Vec256 lanes=%d edge %d word %d (P=%v): batch %064b, portable %064b",
						label, lanes, e, k, g.edges[e].P, got, want[e])
				}
			}
		}
	}
}

// TestFillKernelMatchesPortable is the kernel's bit-identity contract: at
// every edge count that touches a 64-edge boundary or spans several kernel
// chunks, every lane count, both batch widths, and on a heap graph and its
// mapped .ugsb copy, the dispatched fill stores exactly the portable fill's
// bits, for every float64 P. The portable fill is itself pinned to the
// scalar sampler by TestSampleBatchSeededLanesBitIdenticalToScalarSampler.
func TestFillKernelMatchesPortable(t *testing.T) {
	if hasFillKernel {
		t.Log("fill path: avx512 kernel, compared with the portable fill")
	} else {
		t.Log("fill path: portable only; this CPU or OS lacks AVX-512F+DQ with ZMM state, so the kernel is not exercised")
	}
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{0, 1, 63, 64, 65, 9856} {
		g, seeds := fillKernelGraph(rng, m)
		checkFillMatchesPortable(t, g, seeds, fmt.Sprintf("heap m=%d", m))
		path := filepath.Join(t.TempDir(), "g.ugsb")
		if err := WriteBinaryFile(path, g); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMappedTrusted(path) // OpenMapped rejects P outside [0,1]
		if err != nil {
			t.Fatal(err)
		}
		checkFillMatchesPortable(t, mapped, seeds, fmt.Sprintf("mapped m=%d", m))
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedForDraw pins the stream inversion the boundary lanes rely on.
func TestSeedForDraw(t *testing.T) {
	for _, e := range []int{0, 1, 700} {
		z := uint64(0xDEADBEEF12345678) + uint64(e)
		s := NewSampler(seedForDraw(z, e))
		for i := 0; i < e; i++ {
			s.Uint64()
		}
		if got := s.Uint64(); got != z {
			t.Fatalf("draw %d = %#x, want %#x", e, got, z)
		}
	}
}

// FuzzFillKernel drives the kernel and the portable fill with arbitrary
// seeds, lane counts, edge counts, strides and raw P bit patterns; they must
// store the same bits, and leave the words between strided masks alone.
func FuzzFillKernel(f *testing.F) {
	if !hasFillKernel {
		f.Skip("no AVX-512F+DQ with ZMM state on this CPU or OS: the kernel cannot run")
	}
	f.Add(int64(1), uint8(64), uint16(300), false, []byte{})
	f.Add(int64(-7), uint8(5), uint16(65), true, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(int64(42), uint8(1), uint16(0), true, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, seed int64, lanes uint8, edges uint16, wide bool, probs []byte) {
		nl := int(lanes)%BatchLanes + 1
		m := int(edges) % 301
		stride := 1
		if wide {
			stride = 4
		}
		rng := rand.New(rand.NewSource(seed))
		g := pathGraph(m, 0.5)
		for e := range g.edges {
			if len(probs) >= 8 {
				i := e * 8 % (len(probs) - len(probs)%8)
				g.edges[e].P = math.Float64frombits(binary.LittleEndian.Uint64(probs[i:]))
			} else {
				g.edges[e].P = rng.Float64()
			}
		}
		seeds := make([]int64, nl)
		for l := range seeds {
			seeds[l] = rng.Int63() - rng.Int63()
		}
		got := make([]uint64, m*stride)
		want := make([]uint64, m*stride)
		for i := range got {
			got[i], want[i] = uint64(i), uint64(i)
		}
		fillLanesKernel(g.edges, seeds, got, stride)
		fillLanesPortable(g.edges, seeds, want, stride)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lanes=%d m=%d stride=%d word %d (edge %d, P=%v): kernel %064b, portable %064b",
					nl, m, stride, i, i/stride, g.edges[i/stride].P, got[i], want[i])
			}
		}
	})
}

// BenchmarkFillBlock times one 64-lane block on a 10k-edge graph through
// the AVX-512 kernel and through the portable tile-and-transpose loop.
//
//	go test -run '^$' -bench FillBlock ./internal/ugraph
func BenchmarkFillBlock(b *testing.B) {
	g := randomBatchGraph(rand.New(rand.NewSource(7)), 1000, 0.02)
	seeds := make([]int64, BatchLanes)
	dst := make([]uint64, g.NumEdges())
	run := func(b *testing.B, fill func([]Edge, []int64, []uint64, int)) {
		for i := 0; b.Loop(); i++ {
			for l := range seeds {
				seeds[l] = int64(i*BatchLanes + l)
			}
			fill(g.edges, seeds, dst, 1)
		}
	}
	b.Run("kernel", func(b *testing.B) {
		if !hasFillKernel {
			b.Skip("no AVX-512F+DQ with ZMM state on this CPU or OS")
		}
		run(b, fillLanesKernel)
	})
	b.Run("portable", func(b *testing.B) { run(b, fillLanesPortable) })
}
