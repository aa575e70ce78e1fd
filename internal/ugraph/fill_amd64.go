package ugraph

import (
	"unsafe"

	"ugs/internal/cpu"
)

// The kernel walks edge records at a 24-byte stride and reads P at offset
// 16, the record that mapped graphs alias; these fail to compile if Edge
// changes.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(Edge{})-24]
	_ = [1]struct{}{}[unsafe.Offsetof(Edge{}.P)-16]
)

// hasFillKernel reports whether fillLanes runs the AVX-512 kernel.
var hasFillKernel = cpu.HasAVX512FDQ

//go:noescape
func fillKernelAVX512(state *[BatchLanes]uint64, edges *Edge, n int, dst *uint64, stride int, keep uint64)

// fillChunk bounds one kernel call to tens of microseconds: the runtime
// cannot preempt assembly, so a long fill returns to Go between chunks.
const fillChunk = 1024

// fillLanesKernel is fillLanes on the AVX-512 kernel: eight ZMM registers
// carry the 64 lane states, and each edge's lane mask is stored directly.
func fillLanesKernel(edges []Edge, seeds []int64, dst []uint64, stride int) {
	m := len(edges)
	if m == 0 {
		return
	}
	_ = dst[(m-1)*stride] // the kernel stores dst[e*stride] for every e < m
	var st [BatchLanes]uint64
	for l, seed := range seeds {
		st[l] = uint64(seed)
	}
	keep := ^uint64(0) >> (BatchLanes - len(seeds))
	for lo := 0; lo < m; lo += fillChunk {
		n := min(fillChunk, m-lo)
		fillKernelAVX512(&st, &edges[lo], n, &dst[lo*stride], stride*8, keep)
	}
}
