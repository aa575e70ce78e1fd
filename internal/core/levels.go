package core

import (
	"slices"
	"sync"
)

// Layout of a levelSchedule block: kernelLanes slots, whose endpoints sit in
// idx and their inputs in f, each as arrays of kernelLanes values at these
// offsets, and the kernel's outputs in inc, one record per slot.
// degreekernel_amd64.s hard-codes the same layout, in bytes.
const (
	kernelLanes = 8
	idxBlock    = 2 * kernelLanes // u, v
	fBlock      = 5 * kernelLanes
	fOrigU      = 0 * kernelLanes // d_u(G)
	fOrigV      = 1 * kernelLanes // d_v(G)
	fInvSqU     = 2 * kernelLanes // 1/d_u(G)²
	fInvSqV     = 3 * kernelLanes // 1/d_v(G)²
	fP          = 4 * kernelLanes // current probability

	// An inc record holds a slot's increments of d1Abs and d1Rel in the
	// last sweep, and its p change (missing −= Δp).
	incRecord = 3
	incBlock  = incRecord * kernelLanes

	// kernelChunk and incChunk bound one call of the sweep kernel and of
	// addIncrements to some tens of microseconds: the runtime cannot
	// preempt assembly, so a long sweep returns to Go between chunks.
	kernelChunk = 512     // blocks
	incChunk    = 1 << 14 // backbone positions

	// prefetchAhead is how many backbone positions ahead addIncrements
	// prefetches the increment record it will add. The records of
	// consecutive positions lie in different levels, so on a backbone
	// whose schedule outgrows the L2 cache the adds otherwise wait on
	// memory one record at a time.
	prefetchAhead = 64
)

// levelSchedule is a backbone ordered into vertex-disjoint levels for the
// AVX-512 degree kernel. An edge's level is one more than the highest level
// of any earlier backbone edge sharing an endpoint, so each vertex still
// meets its edges in backbone order and every step reads and writes the
// same values as tracker.degreeSweep. Only d1Abs, d1Rel and missing, sums
// over all edges, would change order: the kernel stores each edge's
// increments, and sweep adds them in backbone order.
//
// Each level starts a block, so its last block may have idle lanes. The
// schedule holds the backbone's current probabilities while it runs, and
// writeBack stores them in the tracker. A one-off run draws it from
// levelPool and a Dynamic keeps its own (Dynamic.schedule), so neither
// holds one on the live heap past a collection.
type levelSchedule struct {
	counts []int32   // edges per level
	at     []int32   // per backbone position, the index in inc of its record; then prefetchAhead zeros
	idx    []int32   // per block: u, then v
	f      []float64 // per block: d_u(G), d_v(G), 1/d_u², 1/d_v², p
	inc    []float64 // per block: the last sweep's increment records
	id     []int32   // per slot: its edge id

	// Build scratch.
	next  []int32 // per vertex, the first level that does not touch it
	lvl   []int32 // per backbone position, its level
	start []int32 // per level, its next free slot
}

var levelPool = sync.Pool{New: func() any { return new(levelSchedule) }}

// resize returns s with length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// minLanesPerBlock is the average number of live lanes per block below
// which gdbSweeps keeps tracker.degreeSweep: a block costs the kernel about
// as much as this many scalar steps.
const minLanesPerBlock = 3

// newLevelSchedule orders backbone into levels and lays them out in blocks.
// It returns nil, leaving the sweeps to tracker.degreeSweep, when some edge
// is a self-loop (its two scatters would hit one address) or when the
// levels would average fewer than minLanes live lanes per block.
func newLevelSchedule(t *tracker, backbone []int, minLanes int) *levelSchedule {
	ls := levelPool.Get().(*levelSchedule)
	if !ls.build(t, backbone, minLanes) {
		levelPool.Put(ls)
		return nil
	}
	return ls
}

func (ls *levelSchedule) build(t *tracker, backbone []int, minLanes int) bool {
	eu, ev := t.eu, t.ev[:len(t.eu)]
	cur := t.cur
	ls.next = resize(ls.next, t.n)
	ls.lvl = resize(ls.lvl, len(backbone))
	next, lvl := ls.next, ls.lvl[:len(backbone)]
	clear(next)
	nlev := int32(0)
	for i, id := range backbone {
		u, v := eu[id], ev[id]
		if u == v {
			return false
		}
		l := max(next[u], next[v])
		next[u], next[v] = l+1, l+1
		lvl[i] = l
		nlev = max(nlev, l+1)
	}
	// Counted in a pass of their own: inside the loop above, counts[l]++
	// would load counts before the previous edge's level is known.
	ls.counts = resize(ls.counts, int(nlev))
	ls.start = resize(ls.start, int(nlev))
	counts, start := ls.counts, ls.start[:nlev]
	clear(counts)
	for _, l := range lvl {
		counts[l]++
	}
	slots := int32(0)
	for l, c := range counts {
		start[l] = slots
		slots += (c + kernelLanes - 1) &^ (kernelLanes - 1)
	}
	blocks := int(slots) / kernelLanes
	if len(backbone) < minLanes*blocks {
		return false
	}

	ls.idx = resize(ls.idx, blocks*idxBlock)
	ls.f = resize(ls.f, blocks*fBlock)
	ls.inc = resize(ls.inc, blocks*incBlock)
	ls.at = resize(ls.at, len(backbone)+prefetchAhead)
	clear(ls.at[len(backbone):]) // prefetch inc[0]
	ls.id = resize(ls.id, int(slots))
	idx, f, at, ids := ls.idx, ls.f, ls.at[:len(backbone)], ls.id
	for i, id := range backbone {
		l := lvl[i]
		s := start[l]
		start[l] = s + 1
		b, lane := int(s/kernelLanes), int(s%kernelLanes)
		ib := idx[b*idxBlock : (b+1)*idxBlock]
		ib[lane], ib[kernelLanes+lane] = eu[id], ev[id]
		f[b*fBlock+fP+lane] = cur[id]
		ids[s] = int32(id)
		at[i] = int32(b*incBlock + lane*incRecord)
	}
	// Idle lanes name vertex 0 for degreeVertsAVX512; start[l] is now the
	// end of level l's edges.
	for _, s := range start {
		b, lane := int(s/kernelLanes), int(s%kernelLanes)
		if lane > 0 {
			ib := idx[b*idxBlock : (b+1)*idxBlock]
			clear(ib[lane:kernelLanes])
			clear(ib[kernelLanes+lane:])
		}
	}
	ls.gatherVerts(t)
	return true
}

// gatherVerts loads every slot's d_u(G), d_v(G) and 1/d² from the tracker.
func (ls *levelSchedule) gatherVerts(t *tracker) {
	blocks := len(ls.idx) / idxBlock
	for b := 0; b < blocks; b += kernelChunk {
		degreeVertsAVX512(&ls.f[b*fBlock], &ls.idx[b*idxBlock], min(kernelChunk, blocks-b), &t.origDeg[0], &t.invSq[0])
	}
}

// remapIDs carries the schedule through a structural batch that left
// backbone membership unchanged: it maps each slot's edge id through
// oldToNew. The endpoints, and with them the levels and the layout, stay.
func (ls *levelSchedule) remapIDs(oldToNew []int32) {
	s := 0
	for _, c := range ls.counts {
		for ; c > 0; c -= kernelLanes {
			ids := ls.id[s : s+int(min(c, kernelLanes))]
			for i, id := range ids {
				ids[i] = oldToNew[id]
			}
			s += kernelLanes
		}
	}
}

// sweep runs one degree-rule sweep (see tracker.degreeSweep) on the kernel,
// level by level, then adds every edge's increments to the tracker's
// accumulators in backbone order (addIncrements), so that each sum keeps
// its bits.
func (ls *levelSchedule) sweep(t *tracker, rel bool, h float64) {
	counts := ls.counts
	for l, b := 0, 0; l < len(counts); {
		e, nb := l, 0
		for e < len(counts) {
			eb := int(counts[e]+kernelLanes-1) / kernelLanes
			if nb > 0 && nb+eb > kernelChunk {
				break
			}
			nb += eb
			e++
		}
		degreeKernelAVX512(&ls.f[b*fBlock], &ls.idx[b*idxBlock], &ls.inc[b*incBlock], &counts[l], e-l, &t.curDeg[0], h, rel)
		l, b = e, b+nb
	}
	acc := [3]float64{t.d1Abs, t.d1Rel, t.missing}
	for i, n := 0, len(ls.at)-prefetchAhead; i < n; i += incChunk {
		addIncrements(&ls.inc[0], &ls.at[i], min(incChunk, n-i), &acc)
	}
	t.d1Abs, t.d1Rel, t.missing = acc[0], acc[1], acc[2]
}

// writeBack stores the schedule's probabilities in the tracker, whose cur
// entries for the backbone are stale while the schedule runs.
func (ls *levelSchedule) writeBack(t *tracker) {
	f, cur := ls.f, t.cur
	s := 0
	for _, c := range ls.counts {
		for ; c > 0; c -= kernelLanes {
			p := f[s/kernelLanes*fBlock+fP:][:kernelLanes]
			for lane, id := range ls.id[s : s+int(min(c, kernelLanes))] {
				cur[id] = p[lane&(kernelLanes-1)]
			}
			s += kernelLanes
		}
	}
}
