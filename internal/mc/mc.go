// Package mc is the Monte-Carlo engine for possible-world query evaluation
// on uncertain graphs (Equation 1 of the paper). Sampling is sharded across
// workers in fixed blocks with deterministic per-sample seeding and
// per-block accumulators merged in block order, so results are bit-identical
// for every worker count; the sample path performs no locking and no
// steady-state allocation. The batch engine is generic over the world-lane
// width (64 or 256 lanes per traversal, see ugraph.Vec), fixed budgets can
// be replaced by sequential-stopping targets (Target, RunAdaptive), and
// sampled fill blocks can be shared across runs through a ugraph.FillCache.
// Exhaustive exact evaluation on tiny graphs is provided as a testing
// oracle.
package mc

import (
	"context"
	"sync"
	"sync/atomic"

	"ugs/internal/ugraph"
)

// sampleSeed derives the rng seed for sample i using a splitmix64-style
// scramble, avoiding correlation between consecutive samples.
func sampleSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// maxBlocks bounds the number of accumulation blocks a run is split into.
// Block boundaries are a function of Samples alone — never of Workers or
// scheduling — so merging block accumulators in index order yields
// bit-identical results (floating-point summation order included) for every
// worker count. It also caps the memory held in per-block accumulators and
// the merge fan-in. Effective parallelism is min(Workers, blocks), so the
// cap sits well above realistic core counts.
const maxBlocks = 128

// cancelStride is how many samples a worker processes between context
// checks inside one block.
const cancelStride = 256

// blockDims splits samples into fixed blocks: size is the per-block sample
// count, count the number of blocks.
func blockDims(samples int) (size, count int) {
	size = (samples + maxBlocks - 1) / maxBlocks
	if size < 1 {
		size = 1
	}
	count = (samples + size - 1) / size
	return size, count
}

// Reduce is the engine's core primitive: it draws opts.Samples possible
// worlds of g and folds them into an accumulator of type A.
//
// The sample range is split into fixed blocks (see maxBlocks). Workers claim
// blocks from an atomic counter; each block gets a fresh accumulator from
// newAcc, filled by visit over the block's samples in ascending index order.
// Completed blocks are folded into the result strictly in block index order
// (a finished block whose predecessors are still running is parked until
// they complete, then folded and released — so at most the out-of-order
// suffix of accumulators is live at once, not all blocks). Sample i is
// always drawn from the deterministic stream (opts.Seed, opts.Offset+i), so
// the merged result is bit-identical for every Workers value —
// floating-point accumulation order included.
//
// newLocal runs once per worker goroutine and provides reusable scratch
// (e.g. a queries.Workspace); with scratch reuse the per-sample path
// performs zero allocations. visit must only touch its own local and acc.
// merge folds src into dst; calls are serialized and happen between blocks,
// never on the per-sample path.
//
// On cancellation Reduce stops promptly (workers re-check the context every
// cancelStride samples), returns the zero A and ctx.Err(). Invalid options
// (Validate) are rejected before any sampling.
func Reduce[L, A any](ctx context.Context, g *ugraph.Graph, opts Options,
	newLocal func() L,
	newAcc func() A,
	visit func(i int, w *ugraph.World, local L, acc A),
	merge func(dst, src A),
) (A, error) {
	var zero A
	if err := opts.Validate(); err != nil {
		return zero, err
	}
	opts = opts.WithDefaults()
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	size, blocks := blockDims(opts.Samples)
	return runBlocks(ctx, blocks, opts.Workers, newAcc, merge,
		func() (runBlock func(b int, acc A, cancelled func() bool) bool, release func()) {
			local := newLocal()
			w := ugraph.NewWorld(g)
			return func(b int, acc A, cancelled func() bool) bool {
				lo := b * size
				hi := lo + size
				if hi > opts.Samples {
					hi = opts.Samples
				}
				for i := lo; i < hi; i++ {
					if (i-lo)%cancelStride == 0 && cancelled() {
						return false
					}
					g.SampleWorldSeeded(sampleSeed(opts.Seed, opts.Offset+i), w)
					visit(i, w, local, acc)
				}
				return true
			}, func() {}
		})
}

// batchCancelStride is how many batches a worker processes between context
// checks inside one block (~4·64 samples at the narrowest width, matching
// cancelStride).
const batchCancelStride = 4

// ReduceBatch is Reduce over lane-transposed world batches of width V: it
// draws opts.Samples possible worlds in runs of up to ugraph.VecLanes[V]
// lanes and folds each WorldBatch into an accumulator of type A. Lane l of
// the batch starting at sample index s is drawn from the same deterministic
// stream as scalar sample s+l, and blocks are fixed runs of whole batches
// merged in block index order — so a batch kernel whose accumulator is
// order-insensitive (integer counters, exact integer-valued sums) produces
// results bit-identical to the scalar path — and to every other width — for
// every Workers value.
//
// visit receives the global index of the batch's first sample and a
// WorldBatch that is reused by the calling goroutine (it must not be
// retained); the final batch may be ragged (Lanes() < VecLanes[V]). When
// opts.FillCache is set (with a FillID), full 64-aligned fill blocks are
// fetched from the cache instead of re-sampled; results are identical
// either way. Each worker's batch and fill scratch come from a per-width
// pool and go back to it when the worker finishes, so a warm run allocates
// neither. Cancellation semantics match Reduce.
func ReduceBatch[V ugraph.Vec, L, A any](ctx context.Context, g *ugraph.Graph, opts Options,
	newLocal func() L,
	newAcc func() A,
	visit func(start int, wb *ugraph.WorldBatch[V], local L, acc A),
	merge func(dst, src A),
) (A, error) {
	var zero A
	if err := opts.Validate(); err != nil {
		return zero, err
	}
	opts = opts.WithDefaults()
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	width := ugraph.VecLanes[V]()
	batches := (opts.Samples + width - 1) / width
	size, blocks := blockDims(batches)
	return runBlocks(ctx, blocks, opts.Workers, newAcc, merge,
		func() (runBlock func(b int, acc A, cancelled func() bool) bool, release func()) {
			local := newLocal()
			f := getBatchFiller[V](g, opts)
			return func(b int, acc A, cancelled func() bool) bool {
				lo := b * size
				hi := lo + size
				if hi > batches {
					hi = batches
				}
				for k := lo; k < hi; k++ {
					if (k-lo)%batchCancelStride == 0 && cancelled() {
						return false
					}
					start := k * width
					lanes := opts.Samples - start
					if lanes > width {
						lanes = width
					}
					f.fill(start, lanes)
					visit(start, f.wb, local, acc)
				}
				return true
			}, f.release
		})
}

// batchFiller is one ReduceBatch worker's fill state: the batch it fills
// and hands to visit, the lane seeds and the 64-lane block views of the
// fill. It comes from a per-width pool and goes back when the worker
// finishes, so a warm run allocates none of it. The batch is rebound to
// each run's graph and unbound on release, which also drops the run's
// options and cached blocks, so a pooled filler keeps no graph or cache
// entry alive.
type batchFiller[V ugraph.Vec] struct {
	wb      *ugraph.WorldBatch[V]
	opts    Options
	seeds   [ugraph.MaxBatchLanes]int64
	blocks  [ugraph.MaxBatchLanes / ugraph.BatchLanes][]uint64 // per-word block views for LoadBlocks
	scratch [ugraph.MaxBatchLanes / ugraph.BatchLanes][]uint64 // per-word fills that bypass the cache
}

// fillers holds idle batch fillers, one pool per width, indexed by the
// width's word count.
var fillers [ugraph.MaxBatchLanes/ugraph.BatchLanes + 1]sync.Pool

func fillerPool[V ugraph.Vec]() *sync.Pool {
	return &fillers[ugraph.VecLanes[V]()/ugraph.BatchLanes]
}

func getBatchFiller[V ugraph.Vec](g *ugraph.Graph, opts Options) *batchFiller[V] {
	f, _ := fillerPool[V]().Get().(*batchFiller[V])
	if f == nil {
		f = &batchFiller[V]{wb: new(ugraph.WorldBatch[V])}
	}
	f.wb.Rebind(g)
	f.opts = opts
	return f
}

func (f *batchFiller[V]) release() {
	f.wb.Rebind(nil)
	f.opts = Options{}
	clear(f.blocks[:])
	fillerPool[V]().Put(f)
}

// fill fills f.wb with the lanes starting at sample index start: directly
// via SampleBatchSeeded, or — when a FillCache is configured — by
// assembling cached 64-lane blocks (full, 64-aligned stream blocks only;
// ragged or unaligned lane groups are sampled fresh into worker-local
// scratch). Both paths are bit-identical.
func (f *batchFiller[V]) fill(start, lanes int) {
	g := f.wb.Graph()
	if f.opts.FillCache == nil || f.opts.FillID == "" {
		for l := 0; l < lanes; l++ {
			f.seeds[l] = sampleSeed(f.opts.Seed, f.opts.Offset+start+l)
		}
		ugraph.SampleBatchSeeded(g, f.seeds[:lanes], f.wb)
		return
	}
	m := g.NumEdges()
	base := f.opts.Offset + start
	words := (lanes + ugraph.BatchLanes - 1) / ugraph.BatchLanes
	for k := 0; k < words; k++ {
		blo := base + k*ugraph.BatchLanes
		bl := lanes - k*ugraph.BatchLanes
		if bl > ugraph.BatchLanes {
			bl = ugraph.BatchLanes
		}
		if bl == ugraph.BatchLanes && blo%ugraph.BatchLanes == 0 {
			key := ugraph.FillKey{Graph: f.opts.FillID, Seed: f.opts.Seed, Block: blo / ugraph.BatchLanes}
			f.blocks[k] = f.opts.FillCache.GetOrFill(key, func() []uint64 {
				dst := make([]uint64, m)
				var bs [ugraph.BatchLanes]int64
				for l := 0; l < ugraph.BatchLanes; l++ {
					bs[l] = sampleSeed(f.opts.Seed, blo+l)
				}
				ugraph.FillBlock(g, bs[:], dst)
				return dst
			})
			continue
		}
		if cap(f.scratch[k]) < m {
			f.scratch[k] = make([]uint64, m)
		}
		f.scratch[k] = f.scratch[k][:m]
		for l := 0; l < bl; l++ {
			f.seeds[l] = sampleSeed(f.opts.Seed, blo+l)
		}
		ugraph.FillBlock(g, f.seeds[:bl], f.scratch[k])
		f.blocks[k] = f.scratch[k]
	}
	ugraph.LoadBlocks(f.wb, f.blocks[:words], lanes)
}

// runBlocks is the shared block engine behind Reduce and ReduceBatch:
// workers claim block indices off an atomic counter and fill one accumulator
// per block via the per-worker runBlock closure (built once per goroutine by
// newWorker, so worker-local scratch — World, WorldBatch, kernel workspaces
// — is reused across blocks); completed blocks are folded strictly in block
// index order. runBlock returns false to signal cancellation. Each worker
// calls its release once, after its last block.
func runBlocks[A any](ctx context.Context, blocks, workers int,
	newAcc func() A,
	merge func(dst, src A),
	newWorker func() (runBlock func(b int, acc A, cancelled func() bool) bool, release func()),
) (A, error) {
	var zero A
	if workers > blocks {
		workers = blocks
	}

	// In-order streaming merge: parked holds finished blocks awaiting their
	// predecessors; folding always happens in ascending block order, and a
	// folded block's accumulator is released immediately.
	var (
		mergeMu   sync.Mutex
		parked    = make([]A, blocks)
		ready     = make([]bool, blocks)
		merged    A
		hasMerged bool
		nextFold  int
	)
	publish := func(b int, acc A) {
		mergeMu.Lock()
		parked[b] = acc
		ready[b] = true
		for nextFold < blocks && ready[nextFold] {
			if !hasMerged {
				merged = parked[nextFold]
				hasMerged = true
			} else {
				merge(merged, parked[nextFold])
			}
			parked[nextFold] = zero
			nextFold++
		}
		mergeMu.Unlock()
	}

	var next atomic.Int64
	var stopped atomic.Bool
	cancelled := func() bool {
		if ctx.Err() != nil {
			stopped.Store(true)
			return true
		}
		return false
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, release := newWorker()
			defer release()
			for !stopped.Load() {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				acc := newAcc()
				if !run(b, acc, cancelled) {
					return
				}
				publish(b, acc)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	return merged, nil
}

// ForEachWorld draws opts.Samples possible worlds of g and invokes fn for
// each, in parallel. fn receives the sample index and a World that is reused
// by the calling goroutine: it must not be retained. fn must be safe for
// concurrent invocation on distinct indices. Cancelling ctx stops the run
// promptly and returns the context's error.
func ForEachWorld(ctx context.Context, g *ugraph.Graph, opts Options, fn func(i int, w *ugraph.World)) error {
	_, err := Reduce(ctx, g, opts,
		func() struct{} { return struct{}{} },
		func() struct{} { return struct{}{} },
		func(i int, w *ugraph.World, _, _ struct{}) { fn(i, w) },
		func(_, _ struct{}) {},
	)
	return err
}

// MeanVectorLocal runs fn over sampled worlds, where fn writes a per-entity
// vector of dim values for its world into out (out is zeroed before each
// call), and returns the element-wise mean across samples. Each engine
// worker owns one L from newLocal — reusable kernel scratch such as a
// queries.Workspace — so the sample path runs without allocating.
func MeanVectorLocal[L any](ctx context.Context, g *ugraph.Graph, opts Options, dim int, newLocal func() L, fn func(w *ugraph.World, local L, out []float64)) ([]float64, error) {
	opts = opts.WithDefaults()
	type state struct {
		local   L
		scratch []float64
	}
	sum, err := Reduce(ctx, g, opts,
		func() *state { return &state{local: newLocal(), scratch: make([]float64, dim)} },
		func() []float64 { return make([]float64, dim) },
		func(_ int, w *ugraph.World, s *state, acc []float64) {
			for j := range s.scratch {
				s.scratch[j] = 0
			}
			fn(w, s.local, s.scratch)
			for j, v := range s.scratch {
				acc[j] += v
			}
		},
		func(dst, src []float64) {
			for j, v := range src {
				dst[j] += v
			}
		},
	)
	if err != nil {
		return nil, err
	}
	inv := 1 / float64(opts.Samples)
	for j := range sum {
		sum[j] *= inv
	}
	return sum, nil
}

// MeanVector is MeanVectorLocal without worker-local scratch — the
// workhorse for vector-valued queries whose kernel needs no workspace.
func MeanVector(ctx context.Context, g *ugraph.Graph, opts Options, dim int, fn func(w *ugraph.World, out []float64)) ([]float64, error) {
	return MeanVectorLocal(ctx, g, opts, dim,
		func() struct{} { return struct{}{} },
		func(w *ugraph.World, _ struct{}, out []float64) { fn(w, out) },
	)
}

// ProbabilityOf estimates Pr[pred(world)] by Monte-Carlo sampling.
func ProbabilityOf(ctx context.Context, g *ugraph.Graph, opts Options, pred func(w *ugraph.World) bool) (float64, error) {
	opts = opts.WithDefaults()
	hits, err := Reduce(ctx, g, opts,
		func() struct{} { return struct{}{} },
		func() *int { return new(int) },
		func(_ int, w *ugraph.World, _ struct{}, acc *int) {
			if pred(w) {
				*acc++
			}
		},
		func(dst, src *int) { *dst += *src },
	)
	if err != nil {
		return 0, err
	}
	return float64(*hits) / float64(opts.Samples), nil
}

// ExactProbabilityOf computes Pr[pred(world)] by exhaustive possible-world
// enumeration (Equation 1). Exponential in |E|; tiny graphs only.
func ExactProbabilityOf(g *ugraph.Graph, pred func(w *ugraph.World) bool) float64 {
	var pr float64
	ugraph.EnumerateWorlds(g, func(w *ugraph.World, p float64) {
		if pred(w) {
			pr += p
		}
	})
	return pr
}

// ExactMeanVector computes the exact expectation of a vector-valued
// per-world function by exhaustive enumeration. Tiny graphs only.
func ExactMeanVector(g *ugraph.Graph, dim int, fn func(w *ugraph.World, out []float64)) []float64 {
	mean := make([]float64, dim)
	out := make([]float64, dim)
	ugraph.EnumerateWorlds(g, func(w *ugraph.World, p float64) {
		for j := range out {
			out[j] = 0
		}
		fn(w, out)
		for j, v := range out {
			mean[j] += p * v
		}
	})
	return mean
}
