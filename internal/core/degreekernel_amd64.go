package core

import "ugs/internal/cpu"

// hasDegreeKernel reports whether degree-rule sweeps can run the AVX-512
// level kernel.
var hasDegreeKernel = cpu.HasAVX512FDQ

// The kernel hard-codes the block layout in bytes: these fail to compile if
// levels.go changes it.
var (
	_ = [1]struct{}{}[kernelLanes-8]
	_ = [1]struct{}{}[idxBlock*4-64]
	_ = [1]struct{}{}[fBlock*8-320]
	_ = [1]struct{}{}[fOrigV*8-64]
	_ = [1]struct{}{}[fInvSqU*8-128]
	_ = [1]struct{}{}[fInvSqV*8-192]
	_ = [1]struct{}{}[fP*8-256]
	_ = [1]struct{}{}[incBlock*8-192]
	_ = [1]struct{}{}[prefetchAhead*4-256]
)

// degreeKernelAVX512 runs one sweep step for the nlev levels whose edge
// counts start at counts, block after block from f, idx and inc (see
// levelSchedule), gathering and scattering only curDeg.
//
//go:noescape
func degreeKernelAVX512(f *float64, idx *int32, inc *float64, counts *int32, nlev int, curDeg *float64, h float64, rel bool)

// degreeVertsAVX512 gathers the per-vertex inputs of blocks consecutive
// blocks from origDeg and invSq.
//
//go:noescape
func degreeVertsAVX512(f *float64, idx *int32, blocks int, origDeg, invSq *float64)

// addIncrements adds, for each of the n records named by at (indices into
// inc), its three values to acc: acc[0] += r[0], acc[1] += r[1],
// acc[2] −= r[2], in order, as the scalar loop would. It reads
// at[n+prefetchAhead-1], so at must extend that far.
//
//go:noescape
func addIncrements(inc *float64, at *int32, n int, acc *[3]float64)
