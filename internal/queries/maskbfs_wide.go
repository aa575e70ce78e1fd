package queries

import (
	"math/bits"

	"ugs/internal/ugraph"
)

// Width-specialized level loops for the mask-BFS kernels.
//
// Go's SSA backend registerizes arrays only up to one element, so the
// generic runLevels — where every vector op collapses to a single register
// word at Vec64 — degrades badly at Vec256: each VecFrontier/VecOr
// round-trips its [4]uint64 operands through the stack, three array copies
// per arc on the hottest line of the engine. These loops are
// line-for-line transcriptions of runLevels with the frontier words held in
// scalar locals and the per-arc state accessed through pointers, which is
// what the compiler needs to keep the whole inner loop in registers. They
// must stay bit-identical to runLevels; TestMaskBFSSpecializedMatchesGeneric
// replays the generic loop against each kernel, and the per-lane scalar-BFS
// oracle tests pin both to the reference semantics.

func runLevels64(b *MaskBFS[ugraph.Vec64], off []int32) {
	arcs := b.arcs
	reach, cur, next, depthSum := b.reach, b.cur, b.next, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := len(reach)
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n/8 {
			for _, ui := range curQ {
				u := int(ui)
				f0 := cur[u][0]
				cur[u] = ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := a.to
					next[v][0] |= f0 & a.mask[0] &^ reach[v][0]
				}
			}
			for v := range next {
				if n0 := next[v][0]; n0 != 0 {
					next[v] = ugraph.Vec64{}
					reach[v][0] |= n0
					depthSum[v] += int64(depth) * int64(bits.OnesCount64(n0))
					cur[v] = ugraph.Vec64{n0}
					nextQ = append(nextQ, int32(v))
				}
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f0 := cur[u][0]
				cur[u] = ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := a.to
					m0 := f0 & a.mask[0] &^ reach[v][0]
					p0 := next[v][0]
					next[v][0] = p0 | m0
					if p0 == 0 && m0 != 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				n0 := next[v][0] // disjoint from reach[v]: masked at insertion
				next[v] = ugraph.Vec64{}
				reach[v][0] |= n0
				depthSum[v] += int64(depth) * int64(bits.OnesCount64(n0))
				cur[v] = ugraph.Vec64{n0}
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

func runLevels256(b *MaskBFS[ugraph.Vec256], off []int32) {
	arcs := b.arcs
	reach, cur, next, depthSum := b.reach, b.cur, b.next, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := len(reach)
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n/8 {
			for _, ui := range curQ {
				u := int(ui)
				f0, f1, f2, f3 := cur[u][0], cur[u][1], cur[u][2], cur[u][3]
				cur[u] = ugraph.Vec256{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := a.to
					r := &reach[v]
					nx := &next[v]
					nx[0] |= f0 & a.mask[0] &^ r[0]
					nx[1] |= f1 & a.mask[1] &^ r[1]
					nx[2] |= f2 & a.mask[2] &^ r[2]
					nx[3] |= f3 & a.mask[3] &^ r[3]
				}
			}
			for v := range next {
				n0, n1, n2, n3 := next[v][0], next[v][1], next[v][2], next[v][3]
				if n0|n1|n2|n3 != 0 {
					next[v] = ugraph.Vec256{}
					reach[v][0] |= n0
					reach[v][1] |= n1
					reach[v][2] |= n2
					reach[v][3] |= n3
					depthSum[v] += int64(depth) * int64(bits.OnesCount64(n0)+bits.OnesCount64(n1)+bits.OnesCount64(n2)+bits.OnesCount64(n3))
					cur[v] = ugraph.Vec256{n0, n1, n2, n3}
					nextQ = append(nextQ, int32(v))
				}
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f0, f1, f2, f3 := cur[u][0], cur[u][1], cur[u][2], cur[u][3]
				cur[u] = ugraph.Vec256{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := a.to
					r := &reach[v]
					m0 := f0 & a.mask[0] &^ r[0]
					m1 := f1 & a.mask[1] &^ r[1]
					m2 := f2 & a.mask[2] &^ r[2]
					m3 := f3 & a.mask[3] &^ r[3]
					nx := &next[v]
					p0, p1, p2, p3 := nx[0], nx[1], nx[2], nx[3]
					nx[0] = p0 | m0
					nx[1] = p1 | m1
					nx[2] = p2 | m2
					nx[3] = p3 | m3
					if p0|p1|p2|p3 == 0 && m0|m1|m2|m3 != 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				n0, n1, n2, n3 := next[v][0], next[v][1], next[v][2], next[v][3] // disjoint from reach[v]
				next[v] = ugraph.Vec256{}
				reach[v][0] |= n0
				reach[v][1] |= n1
				reach[v][2] |= n2
				reach[v][3] |= n3
				depthSum[v] += int64(depth) * int64(bits.OnesCount64(n0)+bits.OnesCount64(n1)+bits.OnesCount64(n2)+bits.OnesCount64(n3))
				cur[v] = ugraph.Vec256{n0, n1, n2, n3}
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}
