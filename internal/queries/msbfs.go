package queries

import (
	"math/bits"

	"ugs/internal/ugraph"
)

// groupFanOut is the number of source slots one MSBFS traversal carries,
// and so the only group size of source traversals at batch widths.
const groupFanOut = 8

// MSBFS is the multi-source companion of MaskBFS at 64 lanes: one
// level-synchronous traversal carries per-vertex lane masks for a group of
// exactly groupFanOut query sources, so each CSR arc of a level is loaded
// once and expanded for all of them. The per-(source, lane) semantics are
// exactly groupFanOut independent MaskBFS runs: source slots never mix, so
// reach masks and settle depths are bit-identical to one
// MaskBFS.ReachFrom per slot, which is what lets the pair estimators route
// through either kernel interchangeably, and what
// TestMSBFSMatchesMaskBFSPerSlot checks slot by slot.
//
// State is laid out as one interleaved record per vertex: rn[v][k] holds
// vertex v's reach mask for source slot k and rn[v][groupFanOut+k] the
// lanes first reached during the current level ("next"). Reach and next
// share the record because the expansion loop needs both for every arc —
// the reach words to mask out settled lanes, the next words to accumulate
// new ones — and an arc's target is a random access: keeping them in one
// cache-line run makes the next-side touch an L1 hit instead of a second
// miss, which is what the traversal's throughput is bound by on
// out-of-cache graphs. The level loop holds the frontier group in scalar
// locals across the frontier vertex's arc loop and touches the next side
// only when some slot transmits, so the common already-settled arc loads
// one record and stores nothing.
//
// Zero steady-state allocations with a warm instance; not safe for
// concurrent use (the batch Monte-Carlo engine keeps one per worker).
type MSBFS struct {
	rn       [][2 * groupFanOut]uint64 // reach slots, then next slots
	cur      [][groupFanOut]uint64     // frontier lanes entering the current level
	depthSum [][groupFanOut]int64      // Σ over reached lanes of the settle depth
	curQ     []int32                   // vertices with any nonzero cur slot
	nextQ    []int32                   // vertices with any nonzero next slot

	*arcTable[ugraph.Vec64]
}

// NewMSBFS returns a multi-source mask-BFS sized for graphs with n vertices
// (each traversal re-sizes it to its batch's graph).
func NewMSBFS(n int) *MSBFS {
	b := &MSBFS{arcTable: new(arcTable[ugraph.Vec64])}
	b.size(n)
	return b
}

// size fits the per-vertex records to a graph of n vertices, reusing their
// storage when it is large enough; the dense sweep ranges over them, so
// they hold exactly n entries. Entries past n keep the between-calls
// invariant (cur all zero), as in MaskBFS.size.
func (b *MSBFS) size(n int) {
	if cap(b.rn) < n {
		b.rn = make([][2 * groupFanOut]uint64, n)
		b.cur = make([][groupFanOut]uint64, n)
		b.depthSum = make([][groupFanOut]int64, n)
		b.curQ = make([]int32, 0, n)
		b.nextQ = make([]int32, 0, n)
	}
	b.rn, b.cur, b.depthSum = b.rn[:n], b.cur[:n], b.depthSum[:n]
}

// ReachFrom runs one level-synchronous traversal from every source in srcs
// across every active lane of wb. Afterwards Reach(v, k) and DepthSum(v, k)
// expose, for source slot k (= srcs[k]), exactly what MaskBFS.ReachFrom
// from srcs[k] would report for v — bit for bit. Duplicate sources are
// allowed and simply settle the same vertex in several slots.
func (b *MSBFS) ReachFrom(wb *ugraph.WorldBatch[ugraph.Vec64], srcs [groupFanOut]int) {
	b.bind(wb)
	b.size(wb.Graph().NumVertices())
	clear(b.rn)
	clear(b.depthSum)
	// Invariant between calls: cur is all zero (every frontier entry set
	// during a level is cleared when the level is consumed), so each
	// distinct source enters the frontier queue once.
	active := wb.ActiveMask()[0]
	b.curQ = b.curQ[:0]
	for k, src := range srcs {
		if b.cur[src] == ([groupFanOut]uint64{}) {
			b.curQ = append(b.curQ, int32(src))
		}
		b.rn[src][k] = active
		b.cur[src][k] = active
	}
	b.nextQ = b.nextQ[:0]
	b.runLevels(wb.Graph().ArcOffsets())
}

// Reach returns the reachability mask of vertex v for source slot k of the
// last ReachFrom: lane bit l is set iff v is reachable from srcs[k] in
// world lane l. Bits of inactive lanes are always zero.
func (b *MSBFS) Reach(v, k int) ugraph.Vec64 { return ugraph.Vec64{b.rn[v][k]} }

// DepthSum returns Σ over reached lanes of vertex v's settle depth from
// source slot k of the last ReachFrom — the multi-source analogue of
// MaskBFS.DepthSums.
func (b *MSBFS) DepthSum(v, k int) int64 { return b.depthSum[v][k] }

// runLevels is MaskBFS's level loop with the source slot as an unrolled
// inner dimension: each arc's lane mask is applied to every slot of the
// frontier vertex, and a vertex joins the next frontier when the union
// over its next slots goes zero → nonzero. The dense/sparse crossover
// scales the single-source vol ≥ n/8 rule by the group size, since per-arc
// expansion and per-vertex sweep both scale by it. Mode choice never
// affects results.
func (b *MSBFS) runLevels(off []int32) {
	arcs := b.arcs
	rn, cur := b.rn, b.cur
	curQ, nextQ := b.curQ, b.nextQ
	n := len(rn)
	depth := 0
	for len(curQ) > 0 {
		depth++
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n*groupFanOut/8 {
			for _, ui := range curQ {
				u := int(ui)
				f := &cur[u]
				f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
				*f = [groupFanOut]uint64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					m := a.mask[0]
					q := &rn[a.to]
					t0 := f0 & m &^ q[0]
					t1 := f1 & m &^ q[1]
					t2 := f2 & m &^ q[2]
					t3 := f3 & m &^ q[3]
					t4 := f4 & m &^ q[4]
					t5 := f5 & m &^ q[5]
					t6 := f6 & m &^ q[6]
					t7 := f7 & m &^ q[7]
					if t0|t1|t2|t3|t4|t5|t6|t7 == 0 {
						continue
					}
					q[8] |= t0
					q[9] |= t1
					q[10] |= t2
					q[11] |= t3
					q[12] |= t4
					q[13] |= t5
					q[14] |= t6
					q[15] |= t7
				}
			}
			for v := range rn {
				q := &rn[v]
				if q[8]|q[9]|q[10]|q[11]|q[12]|q[13]|q[14]|q[15] == 0 {
					continue
				}
				b.settle(v, depth)
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				f := &cur[u]
				f0, f1, f2, f3, f4, f5, f6, f7 := f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7]
				*f = [groupFanOut]uint64{}
				for j := off[u]; j < off[u+1]; j++ {
					a := &arcs[j]
					m := a.mask[0]
					q := &rn[a.to]
					t0 := f0 & m &^ q[0]
					t1 := f1 & m &^ q[1]
					t2 := f2 & m &^ q[2]
					t3 := f3 & m &^ q[3]
					t4 := f4 & m &^ q[4]
					t5 := f5 & m &^ q[5]
					t6 := f6 & m &^ q[6]
					t7 := f7 & m &^ q[7]
					if t0|t1|t2|t3|t4|t5|t6|t7 == 0 {
						continue
					}
					pre := q[8] | q[9] | q[10] | q[11] | q[12] | q[13] | q[14] | q[15]
					q[8] |= t0
					q[9] |= t1
					q[10] |= t2
					q[11] |= t3
					q[12] |= t4
					q[13] |= t5
					q[14] |= t6
					q[15] |= t7
					if pre == 0 {
						nextQ = append(nextQ, a.to)
					}
				}
			}
			for _, v := range nextQ {
				b.settle(int(v), depth)
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// settle folds vertex v's next slots — disjoint from its reach slots, since
// they are masked at insertion — into its reach slots, the frontier of the
// next level and the per-slot depth sums, and clears them.
func (b *MSBFS) settle(v, depth int) {
	q, c, d := &b.rn[v], &b.cur[v], &b.depthSum[v]
	dd := int64(depth)
	for k := range groupFanOut {
		newly := q[groupFanOut+k]
		q[k] |= newly
		q[groupFanOut+k] = 0
		c[k] = newly
		d[k] += dd * int64(bits.OnesCount64(newly))
	}
}

// MSWorldBFS is the scalar-world counterpart of MSBFS: one breadth-first
// search over a single sampled world carries a 64-bit source mask per
// vertex (bit k = "reached from srcs[k]"), so each present arc of a level
// is walked once for up to 64 sources. Per-source distances are identical
// to one BFS.Distances call per source. Not safe for concurrent use.
type MSWorldBFS struct {
	n     int
	group int
	reach []uint64 // per-vertex mask of source slots that reached it
	cur   []uint64
	next  []uint64
	depth []int32 // v*group+k: settle depth; valid iff reach bit k set at v
	curQ  []int32
	nextQ []int32
}

// NewMSWorldBFS returns a scalar multi-source BFS for graphs with n
// vertices, pre-sized for source groups of up to fan (≤ 64) sources.
func NewMSWorldBFS(n, fan int) *MSWorldBFS {
	if fan < 1 {
		fan = 1
	}
	return &MSWorldBFS{
		n:     n,
		reach: make([]uint64, n),
		cur:   make([]uint64, n),
		next:  make([]uint64, n),
		depth: make([]int32, n*fan),
		curQ:  make([]int32, 0, n),
		nextQ: make([]int32, 0, n),
	}
}

// Run traverses w from every source in srcs (at most 64). Afterwards
// Dist(v, k) reports the hop distance from srcs[k] to v in this world, −1
// when unreachable — exactly BFS.Distances(w, srcs[k])[v].
func (b *MSWorldBFS) Run(w *ugraph.World, srcs []int) {
	if len(srcs) > 64 {
		panic("queries: MSWorldBFS carries at most 64 sources per run")
	}
	g := w.Graph()
	s := len(srcs)
	b.group = s
	if need := b.n * s; len(b.depth) < need {
		b.depth = make([]int32, need)
	}
	reach, cur, next := b.reach, b.cur, b.next
	for v := range reach {
		reach[v] = 0
	}
	// depth entries are only read where the corresponding reach bit is set,
	// and every such (v, k) is written this run — no clearing needed.
	b.curQ = b.curQ[:0]
	for k, src := range srcs {
		if reach[src] == 0 {
			b.curQ = append(b.curQ, int32(src))
		}
		reach[src] |= 1 << k
		cur[src] |= 1 << k
		b.depth[src*s+k] = 0
	}
	curQ, nextQ := b.curQ, b.nextQ[:0]
	depth := int32(0)
	for len(curQ) > 0 {
		depth++
		nextQ = nextQ[:0]
		for _, ui := range curQ {
			u := int(ui)
			fu := cur[u]
			cur[u] = 0
			for _, a := range g.Neighbors(u) {
				if !w.Present(a.ID) {
					continue
				}
				v := a.To
				m := fu &^ reach[v]
				if m == 0 {
					continue
				}
				if next[v] == 0 {
					nextQ = append(nextQ, int32(v))
				}
				next[v] |= m
			}
		}
		for _, vi := range nextQ {
			v := int(vi)
			newly := next[v] // disjoint from reach: masked at insertion
			next[v] = 0
			reach[v] |= newly
			cur[v] = newly
			for m := newly; m != 0; m &= m - 1 {
				b.depth[v*s+bits.TrailingZeros64(m)] = depth
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// Dist returns the hop distance from source slot k to vertex v in the last
// Run's world, −1 when unreachable.
func (b *MSWorldBFS) Dist(v, k int) int {
	if b.reach[v]&(1<<k) == 0 {
		return -1
	}
	return int(b.depth[v*b.group+k])
}
