package queries

import (
	"math/bits"

	"ugs/internal/ugraph"
)

// PairSearch is a reusable bit-parallel bidirectional breadth-first search
// that answers one (s, t) pair per call over the world lanes of a
// ugraph.WorldBatch. Where MaskBFS settles the source's whole component in
// every lane to read one target, PairSearch grows a ball around s and a
// ball around t in alternating half-levels and stops each lane where the
// two meet:
//
//   - half-level h expands the s side when h is odd and the t side when h
//     is even, so after h half-levels the balls have radii ⌈h/2⌉ and ⌊h/2⌋;
//   - a lane resolves at distance h when a vertex newly reached in
//     half-level h was already reached from the other side (h = 2L−1: the
//     s side's level-L vertex lies in the t ball; h = 2L: both sides first
//     reach it at level L). The balls of the previous half-level were
//     disjoint in that lane, which puts the distance at h or more, and the
//     meeting vertex carries a path of exactly h hops;
//   - a lane has no path when the side being expanded reaches no new vertex
//     in it before the sides meet: that side's component is exhausted, and
//     it cannot hold the other endpoint, whose ball it would have met;
//   - a resolved lane leaves both frontiers (frontier masks are ANDed with
//     the pending lanes before every expansion, and a frontier vertex with
//     no pending lane is skipped outright), and the search ends when no
//     lane is pending.
//
// Each lane's result is therefore the exact scalar BFS distance, so the
// reach mask and depth sum are bit-identical to MaskBFS.ReachFrom(wb, s)[t]
// and DepthSums()[t] — the pair estimators route between the two kernels
// freely.
//
// The loop runs on one 64-lane word at a time: a 256-lane batch is four
// independent 64-lane searches over the same shared arc table, so a word
// whose lanes all resolve early costs nothing more while the others go on.
// The per-vertex state is cleared through the list of vertices either side
// reached, so a search's cost follows the two balls it explored rather
// than |V|. Graphs are undirected, so the t side walks the same CSR arcs.
//
// Zero steady-state allocations with a warm instance. Not safe for
// concurrent use; the batch Monte-Carlo engine creates one per worker.
type PairSearch[V ugraph.Vec] struct {
	state   []pairVertex   // per-vertex reach/next masks of the word being searched
	front   [2][]pairFront // frontier of the s side (0) and of the t side (1)
	spare   []pairFront    // the next frontier of the side being expanded
	touched []int32        // vertices reached from either side: the reset list
	q       []int32        // vertices first touched in the half-level being expanded

	*arcTable[V]
}

// pairVertex is one vertex's search state, kept in one record because an
// arc's target is a random access that reads the expanding side's reach
// word and updates next together.
type pairVertex struct {
	reach [2]uint64 // lanes in which the vertex was reached from s (0) and from t (1)
	next  uint64    // lanes first reached during the half-level being expanded
}

// pairFront is one frontier vertex with the lanes it was first reached in.
type pairFront struct {
	v    int32
	mask uint64
}

// NewPairSearch returns a pair search sized for graphs with n vertices
// (larger graphs grow the state on first use). The per-arc table is sized
// on first use.
func NewPairSearch[V ugraph.Vec](n int) *PairSearch[V] {
	return &PairSearch[V]{state: make([]pairVertex, n), q: make([]int32, n+1), arcTable: new(arcTable[V])}
}

// Search answers the pair (s, t) on every active lane of wb. Lane bit l of
// reach is set iff t is reachable from s in world lane l, and depthSum is
// the sum of those lanes' hop distances; bits of inactive lanes are zero.
func (p *PairSearch[V]) Search(wb *ugraph.WorldBatch[V], s, t int) (reach V, depthSum int64) {
	p.bind(wb)
	g := wb.Graph()
	if n := g.NumVertices(); len(p.state) < n {
		p.state = make([]pairVertex, n)
		p.q = make([]int32, n+1)
	}
	off := g.ArcOffsets()
	active := wb.ActiveMask()
	for k := 0; k < len(reach); k++ {
		var d int64
		reach[k], d = searchWord(p, off, k, s, t, active[k])
		depthSum += d
	}
	return reach, depthSum
}

// searchWord runs the bidirectional search on lane word k of the bound
// batch, whose active lanes are active. It reads only word k of each arc's
// lane mask, so every width shares this one loop.
func searchWord[V ugraph.Vec](p *PairSearch[V], off []int32, k, s, t int, active uint64) (reached uint64, depthSum int64) {
	if active == 0 {
		return 0, 0
	}
	if s == t {
		return active, 0
	}
	st := p.state
	st[s].reach[0] = active
	st[t].reach[1] = active
	touched := append(p.touched[:0], int32(s), int32(t))
	front := [2][]pairFront{
		append(p.front[0][:0], pairFront{int32(s), active}),
		append(p.front[1][:0], pairFront{int32(t), active}),
	}
	nf := p.spare
	pending := active
	for h := 1; pending != 0; h++ {
		side := (h - 1) & 1
		cnt := expandHalf(p.arcs, off, st, front[side], p.q, pending, side, k)
		nf = nf[:0]
		var meet, alive uint64
		for _, v := range p.q[:cnt] {
			r := &st[v]
			newly := r.next // disjoint from reach[side]: masked at insertion
			r.next = 0
			if r.reach[0]|r.reach[1] == 0 {
				touched = append(touched, v)
			}
			r.reach[side] |= newly
			meet |= newly & r.reach[side^1]
			alive |= newly
			nf = append(nf, pairFront{v, newly})
		}
		reached |= meet
		depthSum += int64(h) * int64(bits.OnesCount64(meet))
		pending &= alive &^ meet
		front[side], nf = nf, front[side]
	}
	for _, v := range touched {
		st[v] = pairVertex{}
	}
	p.front, p.spare, p.touched = front, nf[:0], touched[:0]
	return reached, depthSum
}

// expandHalf expands the frontier of one side over the pending lanes of word
// k and writes each vertex it newly reaches to q, once, leaving the new
// lanes in the vertex's next word; it returns how many it wrote. The write
// is unconditional and only the count advances on a first touch, so the arc
// loop has no data-dependent branch (q holds |V|+1 entries, room for every
// vertex plus one spare slot past the last). It is its own function
// so the arc loop keeps its few live values in registers.
func expandHalf[V ugraph.Vec](arcs []packedArc[V], off []int32, st []pairVertex, front []pairFront, q []int32, pending uint64, side, k int) int {
	cnt := 0
	for _, e := range front {
		f := e.mask & pending
		if f == 0 {
			continue
		}
		row := arcs[off[e.v]:off[e.v+1]]
		for j := range row {
			a := &row[j]
			r := &st[a.to]
			m := f & a.mask[k] &^ r.reach[side]
			pn := r.next
			r.next = pn | m
			q[cnt] = a.to
			cnt += int((pn - 1) &^ pn & (m | -m) >> 63)
		}
	}
	return cnt
}
