package queries

import (
	"ugs/internal/ugraph"
)

// MaskBFS is a reusable bit-parallel breadth-first search over the world
// lanes of a ugraph.WorldBatch — 64 or 256 lanes depending on the vector
// width V. One level-synchronous traversal propagates a per-vertex
// lane mask (bit l = "reached in world l") over the graph's CSR adjacency,
// answering connectivity, reliability and hop-distance queries for all
// lanes at once: an edge transmits exactly the frontier lanes that contain
// it (frontier & edgeMask), and a vertex settles each lane at the level it
// is first reached in that lane. The vector helpers (ugraph.VecFrontier and
// friends) instantiate to straight-line word ops, so the V=Vec64 kernel is
// the original single-word loop and the wider widths simply carry more
// worlds per cache line of traversal state.
//
// Zero steady-state allocations with a warm instance. Not safe for
// concurrent use; create one per goroutine (the batch Monte-Carlo engine
// creates one per worker).
type MaskBFS[V ugraph.Vec] struct {
	reach    []V     // lanes in which each vertex has been reached
	cur      []V     // frontier lanes entering the current level
	next     []V     // lanes first reached during the current level
	depthSum []int64 // Σ over reached lanes of the lane's settle depth
	curQ     []int32 // vertices with nonzero cur bits
	nextQ    []int32 // vertices with nonzero next bits

	arcTable[V]
}

// packedArc is one CSR arc fused with its edge's lane mask for the bound
// batch fill.
type packedArc[V ugraph.Vec] struct {
	mask V
	to   int32
}

// arcTable is the per-arc gather table shared by the single- and
// multi-source mask-BFS kernels, in CSR arc order: each entry packs the
// arc's target vertex with the bound batch's lane mask of the arc's edge,
// so a traversal's inner loop consumes one sequential stream instead of
// chasing masks[arc.ID] per arc. The gather costs one 2|E| pass per batch
// fill and is amortized over every traversal of that fill (one per distinct
// query source, or one per source group on the multi-source engine); cache
// keys make staleness impossible.
type arcTable[V ugraph.Vec] struct {
	arcs     []packedArc[V]
	boundG   *ugraph.Graph
	boundWB  *ugraph.WorldBatch[V]
	boundSeq uint64
}

// NewMaskBFS returns a mask-BFS sized for graphs with n vertices. The
// per-arc tables are sized on first use.
func NewMaskBFS[V ugraph.Vec](n int) *MaskBFS[V] {
	return &MaskBFS[V]{
		reach:    make([]V, n),
		cur:      make([]V, n),
		next:     make([]V, n),
		depthSum: make([]int64, n),
		curQ:     make([]int32, 0, n),
		nextQ:    make([]int32, 0, n),
	}
}

// bind refreshes the per-arc gather table for wb's current fill (no-op
// when already bound to this graph, batch and fill sequence).
func (b *arcTable[V]) bind(wb *ugraph.WorldBatch[V]) {
	g := wb.Graph()
	if b.boundG != g {
		arcs := g.Arcs()
		if cap(b.arcs) < len(arcs) {
			b.arcs = make([]packedArc[V], len(arcs))
		}
		b.arcs = b.arcs[:len(arcs)]
		b.boundG = g
		b.boundWB = nil
	}
	if b.boundWB != wb || b.boundSeq != wb.FillSeq() {
		masks := wb.EdgeMasks()
		for j, a := range g.Arcs() {
			b.arcs[j] = packedArc[V]{mask: masks[a.ID], to: int32(a.To)}
		}
		b.boundWB, b.boundSeq = wb, wb.FillSeq()
	}
}

// ReachFrom runs one level-synchronous traversal from src across every
// active lane of wb. It returns the per-vertex reachability masks: lane bit
// l of the result's entry v is set iff v is reachable from src in world
// lane l. The slice is owned by the MaskBFS and overwritten by the next
// call; bits of inactive lanes are always zero.
//
// Per-lane hop distances are folded into DepthSums as each (vertex, lane)
// settles: lane l of vertex v contributes its BFS distance the moment v is
// first reached in lane l, which is exactly the scalar BFS distance of v in
// world l. Unreached lanes contribute nothing (reachability masks record
// which lanes count).
func (b *MaskBFS[V]) ReachFrom(wb *ugraph.WorldBatch[V], src int) []V {
	off := b.start(wb, src)
	// The compiler only keeps arrays of length ≤ 1 in registers, so the
	// generic level loop would bounce each multi-word vector through memory
	// three times per arc (and even the one-word width pays for per-arc
	// struct copies). Every width dispatches to a hand-specialized level
	// loop (maskbfs_wide.go) that holds the frontier words in scalar locals;
	// each is a transcription of runLevels, the generic reference the
	// equivalence tests replay (TestMaskBFSSpecializedMatchesGeneric).
	switch bb := any(b).(type) {
	case *MaskBFS[ugraph.Vec64]:
		runLevels64(bb, off)
	case *MaskBFS[ugraph.Vec256]:
		runLevels256(bb, off)
	default:
		b.runLevels(off)
	}
	return b.reach
}

// start binds wb and resets the traversal state: reach/depthSum cleared,
// src seeded in every active lane, the frontier queue holding src. It
// returns the CSR arc offsets the level loops index arcs with.
func (b *MaskBFS[V]) start(wb *ugraph.WorldBatch[V], src int) []int32 {
	b.bind(wb)
	reach := b.reach
	var zero V
	for v := range reach {
		reach[v] = zero
		b.depthSum[v] = 0
	}
	// Invariant between calls: cur and next are all zero (every entry set
	// during a level is cleared when the level is consumed).
	active := wb.ActiveMask()
	reach[src] = active
	b.cur[src] = active
	b.curQ = append(b.curQ[:0], int32(src))
	b.nextQ = b.nextQ[:0]
	return wb.Graph().ArcOffsets()
}

// runLevels is the generic level-synchronous expansion loop — the reference
// semantics every specialized kernel must reproduce bit for bit.
func (b *MaskBFS[V]) runLevels(off []int32) {
	arcs := b.arcs
	reach, cur, next, depthSum := b.reach, b.cur, b.next, b.depthSum
	var zero V
	curQ, nextQ := b.curQ, b.nextQ
	n := len(reach)
	depth := 0
	for len(curQ) > 0 {
		depth++
		// Arc volume of the level decides how the next frontier is
		// recovered. Lane masks intersect unpredictably, so the expansion
		// loop is kept branch-free (always-executed L1 loads are cheaper
		// than data-dependent skips that mispredict); on dense levels even
		// the first-touch queue push is dropped and the frontier is
		// rebuilt by a sequential sweep of next instead.
		vol := 0
		for _, ui := range curQ {
			vol += int(off[ui+1] - off[ui])
		}
		nextQ = nextQ[:0]
		if vol >= n/8 {
			for _, ui := range curQ {
				u := int(ui)
				fu := cur[u]
				cur[u] = zero
				for _, a := range arcs[off[u]:off[u+1]] {
					v := int(a.to)
					next[v] = ugraph.VecOr(next[v], ugraph.VecFrontier(fu, a.mask, reach[v]))
				}
			}
			for v := range next {
				if newly := next[v]; !ugraph.VecIsZero(newly) {
					next[v] = zero
					reach[v] = ugraph.VecOr(reach[v], newly)
					depthSum[v] += int64(depth) * int64(ugraph.VecOnesCount(newly))
					cur[v] = newly
					nextQ = append(nextQ, int32(v))
				}
			}
		} else {
			for _, ui := range curQ {
				u := int(ui)
				fu := cur[u]
				cur[u] = zero
				for _, a := range arcs[off[u]:off[u+1]] {
					v := int(a.to)
					m := ugraph.VecFrontier(fu, a.mask, reach[v])
					prev := next[v]
					nv := ugraph.VecOr(prev, m)
					next[v] = nv
					if ugraph.VecIsZero(prev) && !ugraph.VecIsZero(nv) {
						nextQ = append(nextQ, int32(v))
					}
				}
			}
			for _, vi := range nextQ {
				v := int(vi)
				newly := next[v] // disjoint from reach[v]: masked at insertion
				next[v] = zero
				reach[v] = ugraph.VecOr(reach[v], newly)
				depthSum[v] += int64(depth) * int64(ugraph.VecOnesCount(newly))
				cur[v] = newly
			}
		}
		curQ, nextQ = nextQ, curQ[:0]
	}
	b.curQ, b.nextQ = curQ[:0], nextQ[:0]
}

// DepthSums exposes the per-vertex sums of settle depths over reached lanes
// computed by the last ReachFrom: entry v is Σ_{l reachable} dist_l(src, v).
// Together with popcount of the reach mask this yields the conditional mean
// shortest distance without per-lane extraction. Owned by the MaskBFS.
func (b *MaskBFS[V]) DepthSums() []int64 { return b.depthSum }

// ConnectedLanes reports the mask of lanes whose world connects all
// vertices of the underlying graph — the wide-world generalization of
// BFS.Connected, computed by one traversal from vertex 0 and an AND-sweep
// over the reachability masks.
func (b *MaskBFS[V]) ConnectedLanes(wb *ugraph.WorldBatch[V]) V {
	if wb.Graph().NumVertices() <= 1 {
		return wb.ActiveMask()
	}
	lanes := wb.ActiveMask()
	for _, r := range b.ReachFrom(wb, 0) {
		lanes = ugraph.VecAnd(lanes, r)
		if ugraph.VecIsZero(lanes) {
			break
		}
	}
	return lanes
}
