package queries

import (
	"math/bits"

	"ugs/internal/ugraph"
)

// MSBFS is the multi-source companion of MaskBFS: one level-synchronous
// traversal carries per-vertex lane masks for a whole group of query
// sources, so each CSR arc of a level is loaded once and expanded for every
// source in the group. With wide world batches nearly every vertex is
// frontier-active at nearly every level for every source, so the union
// frontier of S sources costs far less arc traffic and level control flow
// than S separate traversals — the same amortization the lane transposition
// buys across worlds, applied across sources. The per-(source, lane)
// semantics are exactly S independent MaskBFS runs: source slots never mix,
// so reach masks and settle depths are bit-identical to S calls of
// MaskBFS.ReachFrom, which is what lets the pair estimators route through
// either kernel interchangeably.
//
// State is laid out as one interleaved record per vertex: rn[v*2S+k] holds
// vertex v's reach mask for source slot k and rn[v*2S+S+k] the lanes first
// reached during the current level ("next"). Reach and next share the
// record because the expansion loop needs both for every arc — the reach
// words to mask out settled lanes, the next words to accumulate new ones —
// and an arc's target is a random access: keeping them in one cache-line
// run makes the next-side touch an L1 hit instead of a second miss, which
// is what the traversal's throughput is bound by on out-of-cache graphs.
// Zero steady-state allocations with a warm instance sized for the group;
// not safe for concurrent use (the batch Monte-Carlo engine creates one per
// worker).
type MSBFS[V ugraph.Vec] struct {
	n        int     // vertices in the bound graph family
	group    int     // source slots of the current/last traversal
	rn       []V     // v*2*group + k: reach slot k; + group + k: next slot k
	cur      []V     // v*group + k: frontier lanes entering the current level
	depthSum []int64 // v*group + k: Σ over reached lanes of the settle depth
	curQ     []int32 // vertices with any nonzero cur slot
	nextQ    []int32 // vertices with any nonzero next slot

	*arcTable[V]
}

// NewMSBFS returns a multi-source mask-BFS for graphs with n vertices,
// pre-sized for source groups of up to fan sources (larger graphs and
// groups grow the buffers on first use).
func NewMSBFS[V ugraph.Vec](n, fan int) *MSBFS[V] {
	if fan < 1 {
		fan = 1
	}
	return &MSBFS[V]{
		n:        n,
		rn:       make([]V, n*fan*2),
		cur:      make([]V, n*fan),
		depthSum: make([]int64, n*fan),
		curQ:     make([]int32, 0, n),
		nextQ:    make([]int32, 0, n),
		arcTable: new(arcTable[V]),
	}
}

// ReachFrom runs one level-synchronous traversal from every source in srcs
// across every active lane of wb. Afterwards Reach(v, k) and DepthSum(v, k)
// expose, for source slot k (= srcs[k]), exactly what MaskBFS.ReachFrom
// from srcs[k] would report for v — bit for bit. Duplicate sources are
// allowed and simply settle the same vertex in several slots.
func (b *MSBFS[V]) ReachFrom(wb *ugraph.WorldBatch[V], srcs []int) {
	off := b.start(wb, srcs)
	// Same registerization story as MaskBFS.ReachFrom, with the group size
	// as a second specialization axis: the generic slot loop re-loads every
	// frontier word from memory per arc and pays a bounds check per slot,
	// so the 64-lane groups of 4 and 8 sources dispatch to hand-specialized
	// level loops (msbfs_wide.go) that view each vertex's record as a
	// fixed-size array and hold the whole frontier group in scalar locals
	// across the arc loop. Every other (width, group) shape runs the
	// generic reference loop, which is also what
	// TestMSBFSSpecializedMatchesGeneric replays against each kernel.
	bb, ok := any(b).(*MSBFS[ugraph.Vec64])
	switch {
	case ok && b.group == 4:
		runLevelsMS64x4(bb, off)
	case ok && b.group == 8:
		runLevelsMS64x8(bb, off)
	default:
		b.runLevels(off)
	}
}

// Reach returns the reachability mask of vertex v for source slot k of the
// last ReachFrom: lane bit l is set iff v is reachable from srcs[k] in
// world lane l. Bits of inactive lanes are always zero.
func (b *MSBFS[V]) Reach(v, k int) V { return b.rn[v*2*b.group+k] }

// DepthSum returns Σ over reached lanes of vertex v's settle depth from
// source slot k of the last ReachFrom — the multi-source analogue of
// MaskBFS.DepthSums.
func (b *MSBFS[V]) DepthSum(v, k int) int64 { return b.depthSum[v*b.group+k] }

// start binds wb, sizes the per-vertex records for wb's graph and
// len(srcs) slots and resets them: reach/next/depthSum cleared, each source
// seeded with the active mask in its own slot, the frontier queue holding
// each distinct source once. It returns the CSR arc offsets the level loops
// index arcs with.
func (b *MSBFS[V]) start(wb *ugraph.WorldBatch[V], srcs []int) []int32 {
	b.bind(wb)
	b.n = wb.Graph().NumVertices()
	s := len(srcs)
	b.group = s
	if need := b.n * s; len(b.cur) < need {
		b.rn = make([]V, need*2)
		b.cur = make([]V, need)
		b.depthSum = make([]int64, need)
	}
	var zero V
	for i := 0; i < b.n*s*2; i++ {
		b.rn[i] = zero
	}
	for i := 0; i < b.n*s; i++ {
		b.depthSum[i] = 0
	}
	// Invariant between calls: cur is all zero (every frontier entry set
	// during a level is cleared when the level is consumed), so a smaller
	// group reusing the same backing array starts clean.
	active := wb.ActiveMask()
	b.curQ = b.curQ[:0]
	for k, src := range srcs {
		row := b.cur[src*s : src*s+s]
		queued := false
		for _, c := range row {
			if !ugraph.VecIsZero(c) {
				queued = true
				break
			}
		}
		if !queued {
			b.curQ = append(b.curQ, int32(src))
		}
		b.rn[src*2*s+k] = active
		row[k] = active
	}
	b.nextQ = b.nextQ[:0]
	return wb.Graph().ArcOffsets()
}

// runLevels is the generic multi-source level loop — the reference
// semantics every specialized kernel must reproduce bit for bit. It mirrors
// MaskBFS.runLevels with one extra inner dimension: each arc's lane mask is
// applied to every source slot of the frontier vertex, and a vertex joins
// the next frontier when the union over its next slots goes nonzero. It
// returns the total number of arc expansions performed, the quantity
// source fan-out amortizes (one expansion covers the whole group).
func (b *MSBFS[V]) runLevels(off []int32) int64 {
	arcs := b.arcs
	s := b.group
	rn, cur, depthSum := b.rn, b.cur, b.depthSum
	var zero V
	curQ, nextQ := b.curQ, b.nextQ
	n := b.n
	depth := 0
	var visits int64
	for len(curQ) > 0 {
		depth++
		// Arc volume decides frontier recovery exactly as in the
		// single-source loop: per-arc expansion and per-vertex sweep both
		// scale by the slot count, so the crossover is unchanged.
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		visits += int64(vol)
		nextQ = nextQ[:0]
		if vol >= n/8 {
			for _, ui := range curQ {
				u := int(ui)
				fu := cur[u*s : u*s+s]
				for _, a := range arcs[off[u]:off[u+1]] {
					v := int(a.to)
					rv := rn[v*2*s : v*2*s+s]
					nv := rn[v*2*s+s : v*2*s+2*s]
					for k := range nv {
						nv[k] = ugraph.VecOr(nv[k], ugraph.VecFrontier(fu[k], a.mask, rv[k]))
					}
				}
				for k := range fu {
					fu[k] = zero
				}
			}
			for v := 0; v < n; v++ {
				nv := rn[v*2*s+s : v*2*s+2*s]
				var un V
				for _, m := range nv {
					un = ugraph.VecOr(un, m)
				}
				if ugraph.VecIsZero(un) {
					continue
				}
				rv := rn[v*2*s : v*2*s+s]
				cv := cur[v*s : v*s+s]
				dv := depthSum[v*s : v*s+s]
				for k := range nv {
					newly := nv[k]
					nv[k] = zero
					rv[k] = ugraph.VecOr(rv[k], newly)
					dv[k] += int64(depth) * int64(ugraph.VecOnesCount(newly))
					cv[k] = newly
				}
				nextQ = append(nextQ, int32(v))
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				fu := cur[u*s : u*s+s]
				for _, a := range arcs[off[u]:off[u+1]] {
					v := int(a.to)
					rv := rn[v*2*s : v*2*s+s]
					nv := rn[v*2*s+s : v*2*s+2*s]
					var pre, post V
					for k := range nv {
						m := ugraph.VecFrontier(fu[k], a.mask, rv[k])
						p := nv[k]
						nv[k] = ugraph.VecOr(p, m)
						pre = ugraph.VecOr(pre, p)
						post = ugraph.VecOr(post, nv[k])
					}
					if ugraph.VecIsZero(pre) && !ugraph.VecIsZero(post) {
						nextQ = append(nextQ, int32(v))
					}
				}
				for k := range fu {
					fu[k] = zero
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				nv := rn[v*2*s+s : v*2*s+2*s]
				rv := rn[v*2*s : v*2*s+s]
				cv := cur[v*s : v*s+s]
				dv := depthSum[v*s : v*s+s]
				for k := range nv {
					newly := nv[k] // disjoint from reach: masked at insertion
					nv[k] = zero
					rv[k] = ugraph.VecOr(rv[k], newly)
					dv[k] += int64(depth) * int64(ugraph.VecOnesCount(newly))
					cv[k] = newly
				}
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
	return visits
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
