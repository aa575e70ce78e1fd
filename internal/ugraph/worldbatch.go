package ugraph

// BatchLanes is the number of world lanes one machine word holds — the
// granularity of fill blocks and the width of the original 64-lane engine.
const BatchLanes = 64

// MaxBatchLanes is the widest supported batch (Vec256).
const MaxBatchLanes = 256

// WorldBatch is the lane-transposed representation of up to VecLanes[V]
// possible worlds: masks[e] holds, in lane bit l, whether edge e is present
// in world lane l. Where World packs 64 *edges* of one world per word, a
// WorldBatch packs the *worlds* of one edge per vector — the layout that
// lets a single graph traversal propagate per-vertex lane masks and answer
// connectivity/reliability/distance queries for every lane at once. The
// width is the type parameter: WorldBatch[Vec64] is the one-word 64-lane
// engine, WorldBatch[Vec256] carries 256 worlds per traversal.
//
// Lane l of a batch filled by SampleBatchSeeded is bit-identical to the
// World produced by SampleWorldSeeded with the same seed, at every width,
// so batch and scalar Monte-Carlo paths agree exactly. A WorldBatch is only
// meaningful together with the Graph it was sampled from and is not safe
// for concurrent use.
type WorldBatch[V Vec] struct {
	g     *Graph
	masks []V    // per-edge lane masks, len == NumEdges
	lanes int    // active lanes, 1..VecLanes[V] (0 before the first fill)
	seq   uint64 // fill sequence, bumped by every fill
}

// NewWorldBatch returns an empty batch for g with no active lanes.
func NewWorldBatch[V Vec](g *Graph) *WorldBatch[V] {
	return &WorldBatch[V]{g: g, masks: make([]V, g.NumEdges())}
}

// Graph returns the uncertain graph this batch was drawn from.
func (b *WorldBatch[V]) Graph() *Graph { return b.g }

// Lanes reports the number of active world lanes (the final batch of a
// Monte-Carlo run may be ragged, holding fewer than VecLanes[V]).
func (b *WorldBatch[V]) Lanes() int { return b.lanes }

// ActiveMask returns the vector with one bit set per active lane.
func (b *WorldBatch[V]) ActiveMask() V { return VecOnes[V](b.lanes) }

// EdgeMasks exposes the per-edge lane masks: lane bit l of EdgeMasks()[e]
// is the presence of edge e in lane l. The slice is owned by the batch;
// callers must treat it as read-only. Bits at or above Lanes() are zero.
func (b *WorldBatch[V]) EdgeMasks() []V { return b.masks }

// LaneMask returns the lane mask of edge id.
func (b *WorldBatch[V]) LaneMask(id int) V { return b.masks[id] }

// FillSeq returns the batch's fill sequence number, incremented by every
// fill (SampleBatchSeeded or LoadBlocks). Kernels that precompute
// batch-derived tables (for example per-arc mask gathers) key their caches
// on (batch, FillSeq) so a refilled batch is never served stale data.
func (b *WorldBatch[V]) FillSeq() uint64 { return b.seq }

// PopCount counts the present (edge, lane) pairs across the batch.
func (b *WorldBatch[V]) PopCount() int {
	n := 0
	for _, m := range b.masks {
		n += VecOnesCount(m)
	}
	return n
}

// ExtractLane writes world lane l into w, which must have been created for
// the batch's graph. It is the transpose of the fill path, used by tests and
// by callers that need one lane as a scalar World.
func (b *WorldBatch[V]) ExtractLane(l int, w *World) {
	if l < 0 || l >= b.lanes {
		panic("ugraph: world batch lane out of range")
	}
	word, shift := uint(l)>>6, uint(l)&63
	m := len(b.masks)
	for wi := range w.bits {
		base := wi << 6
		limit := m - base
		if limit > 64 {
			limit = 64
		}
		var out uint64
		for bit := 0; bit < limit; bit++ {
			out |= (b.masks[base+bit][word] >> shift & 1) << uint(bit)
		}
		w.bits[wi] = out
	}
}

// SampleBatchSeeded redraws the batch so that lane l is bit-identical to
// the world SampleWorldSeeded(seeds[l], w) produces: each lane draws its own
// deterministic SplitMix64 stream in ascending edge order. len(seeds) sets
// the active lane count and must be 1..VecLanes[V]. Zero allocations.
//
// The fill works tile-by-tile: for each group of 64 edges and each lane
// word, every lane of that word draws its 64-bit presence word (advancing
// all lane streams in lockstep through the edge list), and the resulting
// 64×64 bit matrix is transposed in place so the batch stores per-edge lane
// masks. Inactive lanes stay zero.
func SampleBatchSeeded[V Vec](g *Graph, seeds []int64, b *WorldBatch[V]) {
	lanes := len(seeds)
	if lanes == 0 || lanes > VecLanes[V]() {
		panic("ugraph: world batch needs 1..VecLanes lane seeds")
	}
	b.lanes = lanes
	b.seq++
	var vz V
	words := len(vz)
	var ss [MaxBatchLanes]Sampler
	for l, seed := range seeds {
		ss[l] = NewSampler(seed)
	}
	edges := g.edges
	m := len(edges)
	var tile [BatchLanes]uint64
	for base := 0; base < m; base += 64 {
		limit := m - base
		if limit > 64 {
			limit = 64
		}
		for k := 0; k < words; k++ {
			lo := k * BatchLanes
			if lo >= lanes {
				for bit := 0; bit < limit; bit++ {
					b.masks[base+bit][k] = 0
				}
				continue
			}
			hi := lanes - lo
			if hi > BatchLanes {
				hi = BatchLanes
			}
			for l := 0; l < hi; l++ {
				s := ss[lo+l]
				var word uint64
				for bit := 0; bit < limit; bit++ {
					if s.Float64() < edges[base+bit].P {
						word |= 1 << uint(bit)
					}
				}
				ss[lo+l] = s
				tile[l] = word
			}
			for l := hi; l < BatchLanes; l++ {
				tile[l] = 0
			}
			transpose64(&tile)
			for bit := 0; bit < limit; bit++ {
				b.masks[base+bit][k] = tile[bit]
			}
		}
	}
}

// SampleBatchSeeded is the 64-lane method form kept for the common width;
// wider batches use the package-level generic function.
func (g *Graph) SampleBatchSeeded(seeds []int64, b *WorldBatch[Vec64]) {
	SampleBatchSeeded(g, seeds, b)
}

// FillBlock samples one 64-lane mask block without a batch: bit l of dst[e]
// is the presence of edge e in the world SampleWorldSeeded(seeds[l]) draws.
// len(seeds) must be 1..64 and len(dst) == NumEdges; bits at or above
// len(seeds) are cleared. It is the width-agnostic unit of the fill cache —
// a V-wide batch is exactly len(V) consecutive blocks (see LoadBlocks).
func FillBlock(g *Graph, seeds []int64, dst []uint64) {
	lanes := len(seeds)
	if lanes == 0 || lanes > BatchLanes {
		panic("ugraph: fill block needs 1..64 lane seeds")
	}
	if len(dst) != g.NumEdges() {
		panic("ugraph: fill block length mismatch")
	}
	var ss [BatchLanes]Sampler
	for l, seed := range seeds {
		ss[l] = NewSampler(seed)
	}
	edges := g.edges
	m := len(edges)
	var tile [BatchLanes]uint64
	for base := 0; base < m; base += 64 {
		limit := m - base
		if limit > 64 {
			limit = 64
		}
		for l := 0; l < lanes; l++ {
			s := ss[l]
			var word uint64
			for bit := 0; bit < limit; bit++ {
				if s.Float64() < edges[base+bit].P {
					word |= 1 << uint(bit)
				}
			}
			ss[l] = s
			tile[l] = word
		}
		for l := lanes; l < BatchLanes; l++ {
			tile[l] = 0
		}
		transpose64(&tile)
		copy(dst[base:base+limit], tile[:limit])
	}
}

// LoadBlocks fills b from per-64-lane mask blocks: block k carries lanes
// [64k, 64k+64), so loading the blocks FillBlock produced for consecutive
// seed groups is bit-identical to one SampleBatchSeeded over the
// concatenated seeds. lanes sets the active count (1..VecLanes[V]); blocks
// must hold ceil(lanes/64) slices of length NumEdges whose bits at or above
// the block's active lane count are zero. Blocks are copied; the batch does
// not retain them.
func LoadBlocks[V Vec](b *WorldBatch[V], blocks [][]uint64, lanes int) {
	if lanes <= 0 || lanes > VecLanes[V]() {
		panic("ugraph: world batch lane count out of range")
	}
	words := (lanes + BatchLanes - 1) / BatchLanes
	if len(blocks) < words {
		panic("ugraph: not enough fill blocks for lane count")
	}
	m := len(b.masks)
	for k := 0; k < words; k++ {
		if len(blocks[k]) != m {
			panic("ugraph: fill block length mismatch")
		}
	}
	b.lanes = lanes
	b.seq++
	var vz V
	for e := 0; e < m; e++ {
		v := vz
		for k := 0; k < words; k++ {
			v[k] = blocks[k][e]
		}
		b.masks[e] = v
	}
}

// FillCache memoizes deterministic 64-lane fill blocks across Monte-Carlo
// runs: the Monte-Carlo engine, when given a cache, asks it for each full
// block of a run instead of re-sampling. Implementations must be safe for
// concurrent use and must return either a previously stored slice or the
// exact slice fill() produced; cached slices are shared and treated as
// immutable by all parties.
type FillCache interface {
	GetOrFill(key FillKey, fill func() []uint64) []uint64
}

// FillKey identifies one 64-lane fill block: the graph's cache identity
// (a content-versioned name — two graphs with different edge lists or
// probabilities must never share one), the run's base seed, and the block
// index: block k covers sample indices [64k, 64k+64) of the (Graph, Seed)
// sample stream.
type FillKey struct {
	Graph string
	Seed  int64
	Block int
}

// transpose64 transposes the 64×64 bit matrix in place under the LSB-first
// convention: bit c of a[r] moves to bit r of a[c]. Recursive block
// swapping (Hacker's Delight §7-3 adapted to LSB indexing): at each level
// the off-diagonal half-blocks are exchanged wholesale, then the recursion
// transposes within — 6 levels of word-parallel shuffles instead of 4096
// single-bit moves.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << uint(j)
	}
}
