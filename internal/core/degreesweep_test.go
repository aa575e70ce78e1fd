package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"testing"

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

// FuzzDegreeSweep checks degreeSweep against refDegreeSweep on small graphs
// decoded from the input. Each 11-byte record is an edge: two endpoint
// bytes, a flag byte and the 8 bytes of its probability (see fuzzProb; a
// zero probability is set after construction). Flag bit 0 puts the edge in
// the backbone, bit 1 starts it at a probability decoded from the reversed
// bits instead of its own, and the remaining bits order the backbone. Both
// discrepancies run 1–4 sweeps at h ∈ {explicit 0, 0.05, 1, fuzzed}; after
// every sweep the two trackers must agree on the bits of every current
// probability and expected degree, both objectives and the missing mass.
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
				for s := 1; s <= sweeps; s++ {
					got.degreeSweep(backbone, dt == Relative, h)
					refDegreeSweep(want, backbone, dt, h)
					same := func(what string, i int, a, b float64) {
						t.Helper()
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("%v h=%v sweep %d: %s[%d] = %v (%#x), reference %v (%#x)",
								dt, h, s, what, i, a, math.Float64bits(a), b, math.Float64bits(b))
						}
					}
					for id := range got.cur {
						same("cur", id, got.cur[id], want.cur[id])
					}
					for u := range got.curDeg {
						same("curDeg", u, got.curDeg[u], want.curDeg[u])
					}
					same("d1Abs", 0, got.d1Abs, want.d1Abs)
					same("d1Rel", 0, got.d1Rel, want.d1Rel)
					same("missing", 0, got.missing, want.missing)
				}
			}
		}
	})
}
