package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ugs/internal/gen"
	"ugs/internal/ugraph"
)

// refDegreeSweep is the branching form of one degree-rule sweep: compute the
// step, clamp or cap with a switch, skip an edge whose probability does not
// move and apply tracker.setProb's bookkeeping otherwise. degreeSweep must
// match it bit for bit.
func refDegreeSweep(t *tracker, backbone []int, dt Discrepancy, h float64) {
	eu, ev, cur := t.eu, t.ev, t.cur
	origDeg, curDeg, invSq := t.origDeg, t.curDeg, t.invSq
	d1Abs, d1Rel, missing := t.d1Abs, t.d1Rel, t.missing
	for _, id := range backbone {
		u, v := int(eu[id]), int(ev[id])
		old := cur[id]
		dAu := origDeg[u] - curDeg[u]
		dAv := origDeg[v] - curDeg[v]
		var stp float64
		if dt == Absolute {
			stp = (dAu + dAv) * 0.5
		} else {
			pu, pv := t.pi(u, dt), t.pi(v, dt)
			stp = (pv*dAu + pu*dAv) / (pu + pv)
		}
		p := old + stp
		switch {
		case p < 0:
			p = 0
		case p > 1:
			p = 1
		case ugraph.EntropyGreater(p, old):
			p = old + h*stp
		}
		if p == old {
			continue
		}
		dp := p - old
		nu, nv := dAu-dp, dAv-dp
		su := nu*nu - dAu*dAu
		sv := nv*nv - dAv*dAv
		d1Abs += su + sv
		d1Rel += su*invSq[u] + sv*invSq[v]
		curDeg[u] += dp
		curDeg[v] += dp
		missing -= dp
		cur[id] = p
	}
	t.d1Abs, t.d1Rel, t.missing = d1Abs, d1Rel, missing
}

// cloneTracker copies the state a sweep writes; the arrays it only reads
// are shared.
func cloneTracker(t *tracker) *tracker {
	c := *t
	c.cur = append([]float64(nil), t.cur...)
	c.curDeg = append([]float64(nil), t.curDeg...)
	return &c
}

// fuzzProb decodes raw bits into a probability in [0, 1]. Selector 0 gives
// exactly 1; selector 1 spreads the bits over every float64 in [0, 1), so
// about half the values lie below 1e-154 (where 1/d² overflows to +Inf) and
// some are 0 or subnormal; the others give a value-uniform draw.
func fuzzProb(raw uint64) float64 {
	switch raw & 3 {
	case 0:
		return 1
	case 1:
		return math.Float64frombits((raw >> 2) % math.Float64bits(1))
	}
	return float64(raw>>11) / (1 << 53)
}

// sameSweepState fails t unless got holds the bits of want in every current
// probability and expected degree, both objectives and the missing mass.
func sameSweepState(t *testing.T, what string, got, want *tracker) {
	t.Helper()
	check := func(name string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), reference %v (%#x)",
					what, name, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
			}
		}
	}
	check("cur", got.cur, want.cur)
	check("curDeg", got.curDeg, want.curDeg)
	check("d1Abs, d1Rel, missing", []float64{got.d1Abs, got.d1Rel, got.missing},
		[]float64{want.d1Abs, want.d1Rel, want.missing})
}

// kernelSweeper runs degree-rule sweeps through a level schedule and the
// AVX-512 kernel, whatever their lane use, and writes the probabilities
// back after each sweep so that the tracker can be compared.
type kernelSweeper struct {
	t  *tracker
	ls *levelSchedule
}

func newKernelSweeper(tb testing.TB, t *tracker, backbone []int) *kernelSweeper {
	ls := newLevelSchedule(t, backbone, 0)
	if ls == nil {
		tb.Fatal("no level schedule for a backbone without self-loops")
	}
	tb.Cleanup(func() { levelPool.Put(ls) })
	return &kernelSweeper{t, ls}
}

func (k *kernelSweeper) sweep(rel bool, h float64) {
	k.ls.sweep(k.t, rel, h)
	k.ls.writeBack(k.t)
}

// FuzzDegreeSweep checks degreeSweep, and on CPUs that run it the level
// schedule with the AVX-512 kernel, against refDegreeSweep on small graphs
// decoded from the input. Each 11-byte record is an edge: two endpoint
// bytes, a flag byte and the 8 bytes of its probability (see fuzzProb; a
// zero probability is set after construction). Flag bit 0 puts the edge in
// the backbone, bit 1 starts it at a probability decoded from the reversed
// bits instead of its own, and the remaining bits order the backbone. Both
// discrepancies run 1–4 sweeps at h ∈ {explicit 0, 0.05, 1, fuzzed}; after
// every sweep each tracker must agree with the reference on the bits of
// every current probability and expected degree, both objectives and the
// missing mass.
func FuzzDegreeSweep(f *testing.F) {
	rec := func(u, v, flags byte, raw uint64) []byte {
		b := []byte{u, v, flags, 0, 0, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint64(b[3:], raw)
		return b
	}
	join := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	half := math.Float64bits(0.5)<<2 | 1
	f.Add(uint8(2), uint8(3), uint16(1000), join(
		rec(0, 1, 1, 0), rec(1, 2, 1, half), rec(2, 3, 5, 2), rec(3, 0, 0, 7<<40|3), rec(0, 2, 9, 1)))
	f.Add(uint8(1), uint8(1), uint16(65535), join(
		rec(0, 1, 3, 1<<40|1), rec(1, 2, 1, 5), rec(0, 2, 1, 0)))
	f.Add(uint8(6), uint8(2), uint16(0), join(
		rec(0, 7, 1, 6), rec(1, 7, 1, 0), rec(2, 7, 7, 1<<62|2), rec(3, 7, 1, 1), rec(4, 5, 0, 3), rec(5, 6, 1, half)))
	// Vertex 0's only mass is a 1e-200 edge outside the backbone, so its
	// 1/d² overflows; its backbone edge sits at p = 0 and clamps there
	// because vertex 1 starts over-assigned: a δR increment of 0·Inf.
	f.Add(uint8(2), uint8(0), uint16(0), join(
		rec(0, 1, 1, 1), rec(0, 2, 0, math.Float64bits(1e-200)<<2|1), rec(1, 3, 7, 0x0CCCCCCCCCCCCCCE)))
	f.Fuzz(func(t *testing.T, nv, mode uint8, hBits uint16, data []byte) {
		n := 2 + int(nv)%7
		b := ugraph.NewBuilder(n)
		type edgeRec struct {
			p, start float64
			flags    byte
		}
		var recs []edgeRec
		for i := 0; i+11 <= len(data); i += 11 {
			if b.AddEdge(int(data[i])%n, int(data[i+1])%n, 0.5) != nil {
				continue // self-loops and repeats are rejected: skip them
			}
			raw := binary.LittleEndian.Uint64(data[i+3:])
			recs = append(recs, edgeRec{fuzzProb(raw), fuzzProb(bits.Reverse64(raw)), data[i+2]})
		}
		g := b.Graph()
		var backbone []int
		for id, r := range recs {
			g.SetProb(id, r.p)
			if r.flags&1 != 0 {
				backbone = append(backbone, id)
			}
		}
		sort.SliceStable(backbone, func(i, j int) bool { return recs[backbone[i]].flags>>2 < recs[backbone[j]].flags>>2 })
		base := newTracker(g, backbone)
		for _, id := range backbone {
			if recs[id].flags&2 != 0 {
				base.setProb(id, recs[id].start)
			}
		}
		sweeps := 1 + int(mode)%4
		for _, dt := range []Discrepancy{Absolute, Relative} {
			for _, h := range []float64{hExplicitZero, 0.05, 1, float64(hBits) / math.MaxUint16} {
				h := effectiveH(h)
				got, want := cloneTracker(base), cloneTracker(base)
				var kern *kernelSweeper
				if hasDegreeKernel {
					kern = newKernelSweeper(t, cloneTracker(base), backbone)
				}
				for s := 1; s <= sweeps; s++ {
					got.degreeSweep(backbone, dt == Relative, h)
					refDegreeSweep(want, backbone, dt, h)
					sameSweepState(t, fmt.Sprintf("%v h=%v sweep %d", dt, h, s), got, want)
					if kern != nil {
						kern.sweep(dt == Relative, h)
						sameSweepState(t, fmt.Sprintf("kernel %v h=%v sweep %d", dt, h, s), kern.t, want)
					}
				}
			}
		}
	})
}

// TestDegreeKernelMatchesPortable is the sweep kernel's bit-identity
// contract at the benchmark's scale: 200 sweeps through the level schedule
// and the AVX-512 kernel must leave, after every sweep, exactly the bits of
// tracker.degreeSweep in every probability, expected degree, both
// objectives and the missing mass. It runs on graphs shaped like the
// benchmark's s10k and s100k fixtures (1,000 and 10,000 vertices, average
// degree 20) with their α = 0.3 backbones in construction and in ascending
// order, and on path backbones whose every level holds k = 1 … 17 edges, so
// that each masked tail of 1–7 lanes runs alone and after full blocks. Each
// runs both discrepancies at h ∈ {explicit 0, 0.05, 1}.
func TestDegreeKernelMatchesPortable(t *testing.T) {
	if !hasDegreeKernel {
		t.Skip("sweep path: portable only; this CPU or OS lacks AVX-512F+DQ with ZMM state, so the kernel cannot run")
	}
	t.Log("sweep path: avx512 level kernel, compared with tracker.degreeSweep")
	type fixture struct {
		name     string
		g        *ugraph.Graph
		backbone []int
	}
	var fixtures []fixture
	for _, n := range []int{1000, 10000} {
		g, err := gen.Social(gen.SocialConfig{N: n, AvgDegree: 20, MeanProb: 0.09, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		backbone, err := BuildBackbone(g, 0.3, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("s%dk", g.NumEdges()/1000)
		fixtures = append(fixtures, fixture{name, g, backbone},
			fixture{name + "/ascending", g, slices.Sorted(slices.Values(backbone))})
	}
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 17; k++ {
		g, backbone := levelPaths(rng, k, 6)
		fixtures = append(fixtures, fixture{fmt.Sprintf("paths%d", k), g, backbone})
	}
	const sweeps = 200
	for _, fx := range fixtures {
		base := newTracker(fx.g, fx.backbone)
		for _, dt := range []Discrepancy{Absolute, Relative} {
			for _, h := range []float64{hExplicitZero, 0.05, 1} {
				h := effectiveH(h)
				want := cloneTracker(base)
				kern := newKernelSweeper(t, cloneTracker(base), fx.backbone)
				for s := 1; s <= sweeps; s++ {
					want.degreeSweep(fx.backbone, dt == Relative, h)
					kern.sweep(dt == Relative, h)
					sameSweepState(t, fmt.Sprintf("%s %v h=%v sweep %d", fx.name, dt, h, s), kern.t, want)
				}
			}
		}
	}
}

// levelPaths returns k vertex-disjoint paths of `steps` backbone edges, and
// a backbone that lists the paths' i-th edges before their (i+1)-th, so
// that every level of its schedule holds exactly k edges. Extra edges
// outside the backbone, and probabilities that include 1, make the steps
// clamp as well as move freely or under the entropy cap. Probabilities of
// 0 and 1e-200 leave some vertices with d_u(G) = 0 (π(u) = 1) or with an
// overflowed 1/d_u(G)².
func levelPaths(rng *rand.Rand, k, steps int) (*ugraph.Graph, []int) {
	n := k * (steps + 1)
	b := ugraph.NewBuilder(n)
	for i := 0; i < steps; i++ {
		for path := 0; path < k; path++ {
			u := path*(steps+1) + i
			_ = b.AddEdge(u, u+1, 0.5)
		}
	}
	for range n {
		_ = b.AddEdge(rng.Intn(n), rng.Intn(n), 0.5) // self-loops and repeats are rejected
	}
	g := b.Graph()
	for id := range g.NumEdges() {
		p := rng.Float64()
		switch rng.Intn(5) {
		case 0:
			p = 1
		case 1:
			p = 0
		case 2:
			p = 1e-200
		}
		g.SetProb(id, p)
	}
	backbone := make([]int, k*steps)
	for i := range backbone {
		backbone[i] = i
	}
	return g, backbone
}
