package queries

import (
	"math/bits"

	"ugs/internal/ugraph"
)

// Fan-specialized level loops for the multi-source mask-BFS kernel.
//
// The generic MSBFS.runLevels pays two costs per (arc, slot) that these
// kernels eliminate: it re-loads every frontier word from memory per arc
// and bounds-checks three runtime-length slot slices. Each specialization
// here fixes the (lane width, group size) pair at compile time, so the
// frontier group lives in scalar locals across the frontier vertex's arc
// loop and the target's interleaved reach+next record converts to one
// fixed-size array pointer — a single bounds check and a single cache-line
// run for the whole random access an arc performs. The new-lane words are
// computed into locals first and the record's next side is only touched
// when one of them is nonzero, keeping the common already-settled arc at
// one loaded line with no stores.
//
// Frontier recovery matches the generic loop decision for decision: a
// vertex joins the candidate queue when the union over its next slots goes
// zero → nonzero (the pre/post test the generic loop folds per arc is one
// OR chain here because the next words share the just-loaded record), the
// dense sweep recovers the frontier from the next side of every record,
// and the dense/sparse crossover scales the single-source vol ≥ n/8 rule
// by the group size since per-arc expansion and per-vertex sweep both
// scale by it. Mode choice never affects results: reach, depth sums and
// level structure stay bit-identical to the reference, which
// TestMSBFSSpecializedMatchesGeneric replays against every kernel.
//
// The specialized shapes are 64 lanes × 4 and × 8 sources, the groups the
// planner's grouped 64-lane plan runs; other shapes run the generic loop.

func runLevelsMS64x4(b *MSBFS[ugraph.Vec64], off []int32) {
	arcs := b.arcs
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n*4/8 {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[4]ugraph.Vec64)(cur[u*4:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				*f = [4]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[8]ugraph.Vec64)(rn[v*8:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					if t0|t1|t2|t3 == 0 {
						continue
					}
					q[4][0] |= t0
					q[5][0] |= t1
					q[6][0] |= t2
					q[7][0] |= t3
				}
			}
			for v := 0; v < n; v++ {
				q := (*[8]ugraph.Vec64)(rn[v*8:])
				n0, n1, n2, n3 := q[4][0], q[5][0], q[6][0], q[7][0]
				if n0|n1|n2|n3 == 0 {
					continue
				}
				settleMS64x4(q, cur, depthSum, v, depth, n0, n1, n2, n3)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[4]ugraph.Vec64)(cur[u*4:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				*f = [4]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[8]ugraph.Vec64)(rn[v*8:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					if t0|t1|t2|t3 == 0 {
						continue
					}
					pre := q[4][0] | q[5][0] | q[6][0] | q[7][0]
					q[4][0] |= t0
					q[5][0] |= t1
					q[6][0] |= t2
					q[7][0] |= t3
					if pre == 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				q := (*[8]ugraph.Vec64)(rn[v*8:])
				n0, n1, n2, n3 := q[4][0], q[5][0], q[6][0], q[7][0] // disjoint from reach: masked at insertion
				settleMS64x4(q, cur, depthSum, v, depth, n0, n1, n2, n3)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settleMS64x4 folds one vertex's newly-reached group into the reach side
// of its record, the frontier for the next level and the per-slot depth
// sums — shared by the dense sweep and the sparse candidate pass of the
// 64×4 kernel.
func settleMS64x4(q *[8]ugraph.Vec64, cur []ugraph.Vec64, depthSum []int64, v, depth int, n0, n1, n2, n3 uint64) {
	q[0][0] |= n0
	q[1][0] |= n1
	q[2][0] |= n2
	q[3][0] |= n3
	q[4][0], q[5][0], q[6][0], q[7][0] = 0, 0, 0, 0
	d := (*[4]int64)(depthSum[v*4:])
	dd := int64(depth)
	d[0] += dd * int64(bits.OnesCount64(n0))
	d[1] += dd * int64(bits.OnesCount64(n1))
	d[2] += dd * int64(bits.OnesCount64(n2))
	d[3] += dd * int64(bits.OnesCount64(n3))
	c := (*[4]ugraph.Vec64)(cur[v*4:])
	c[0][0], c[1][0], c[2][0], c[3][0] = n0, n1, n2, n3
}

func runLevelsMS64x8(b *MSBFS[ugraph.Vec64], off []int32) {
	arcs := b.arcs
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[8]ugraph.Vec64)(cur[u*8:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				f4, f5, f6, f7 := f[4][0], f[5][0], f[6][0], f[7][0]
				*f = [8]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[16]ugraph.Vec64)(rn[v*16:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					t4 := f4 & m &^ q[4][0]
					t5 := f5 & m &^ q[5][0]
					t6 := f6 & m &^ q[6][0]
					t7 := f7 & m &^ q[7][0]
					if t0|t1|t2|t3|t4|t5|t6|t7 == 0 {
						continue
					}
					q[8][0] |= t0
					q[9][0] |= t1
					q[10][0] |= t2
					q[11][0] |= t3
					q[12][0] |= t4
					q[13][0] |= t5
					q[14][0] |= t6
					q[15][0] |= t7
				}
			}
			for v := 0; v < n; v++ {
				q := (*[16]ugraph.Vec64)(rn[v*16:])
				n0, n1, n2, n3 := q[8][0], q[9][0], q[10][0], q[11][0]
				n4, n5, n6, n7 := q[12][0], q[13][0], q[14][0], q[15][0]
				if n0|n1|n2|n3|n4|n5|n6|n7 == 0 {
					continue
				}
				settleMS64x8(q, cur, depthSum, v, depth, n0, n1, n2, n3, n4, n5, n6, n7)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := (*[8]ugraph.Vec64)(cur[u*8:])
				f0, f1, f2, f3 := f[0][0], f[1][0], f[2][0], f[3][0]
				f4, f5, f6, f7 := f[4][0], f[5][0], f[6][0], f[7][0]
				*f = [8]ugraph.Vec64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					v := int(a.to)
					m := a.mask[0]
					q := (*[16]ugraph.Vec64)(rn[v*16:])
					t0 := f0 & m &^ q[0][0]
					t1 := f1 & m &^ q[1][0]
					t2 := f2 & m &^ q[2][0]
					t3 := f3 & m &^ q[3][0]
					t4 := f4 & m &^ q[4][0]
					t5 := f5 & m &^ q[5][0]
					t6 := f6 & m &^ q[6][0]
					t7 := f7 & m &^ q[7][0]
					if t0|t1|t2|t3|t4|t5|t6|t7 == 0 {
						continue
					}
					pre := q[8][0] | q[9][0] | q[10][0] | q[11][0] |
						q[12][0] | q[13][0] | q[14][0] | q[15][0]
					q[8][0] |= t0
					q[9][0] |= t1
					q[10][0] |= t2
					q[11][0] |= t3
					q[12][0] |= t4
					q[13][0] |= t5
					q[14][0] |= t6
					q[15][0] |= t7
					if pre == 0 {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				q := (*[16]ugraph.Vec64)(rn[v*16:])
				n0, n1, n2, n3 := q[8][0], q[9][0], q[10][0], q[11][0] // disjoint from reach: masked at insertion
				n4, n5, n6, n7 := q[12][0], q[13][0], q[14][0], q[15][0]
				settleMS64x8(q, cur, depthSum, v, depth, n0, n1, n2, n3, n4, n5, n6, n7)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settleMS64x8 is settleMS64x4 for the 64×8 kernel.
func settleMS64x8(q *[16]ugraph.Vec64, cur []ugraph.Vec64, depthSum []int64, v, depth int, n0, n1, n2, n3, n4, n5, n6, n7 uint64) {
	q[0][0] |= n0
	q[1][0] |= n1
	q[2][0] |= n2
	q[3][0] |= n3
	q[4][0] |= n4
	q[5][0] |= n5
	q[6][0] |= n6
	q[7][0] |= n7
	q[8] = ugraph.Vec64{}
	q[9] = ugraph.Vec64{}
	q[10] = ugraph.Vec64{}
	q[11] = ugraph.Vec64{}
	q[12] = ugraph.Vec64{}
	q[13] = ugraph.Vec64{}
	q[14] = ugraph.Vec64{}
	q[15] = ugraph.Vec64{}
	d := (*[8]int64)(depthSum[v*8:])
	dd := int64(depth)
	d[0] += dd * int64(bits.OnesCount64(n0))
	d[1] += dd * int64(bits.OnesCount64(n1))
	d[2] += dd * int64(bits.OnesCount64(n2))
	d[3] += dd * int64(bits.OnesCount64(n3))
	d[4] += dd * int64(bits.OnesCount64(n4))
	d[5] += dd * int64(bits.OnesCount64(n5))
	d[6] += dd * int64(bits.OnesCount64(n6))
	d[7] += dd * int64(bits.OnesCount64(n7))
	c := (*[8]ugraph.Vec64)(cur[v*8:])
	c[0][0], c[1][0], c[2][0], c[3][0] = n0, n1, n2, n3
	c[4][0], c[5][0], c[6][0], c[7][0] = n4, n5, n6, n7
}
