package cpu

// HasAVX512FDQ reports whether the CPU has AVX-512F and AVX-512DQ and the
// OS saves the opmask and ZMM state, which is what both AVX-512 kernels
// need (KMOVB is a DQ instruction).
var HasAVX512FDQ = hasAVX512FDQ()

func hasAVX512FDQ() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false // XGETBV would fault
	}
	const xmmYmmOpmaskZmm = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv0()&xmmYmmOpmaskZmm != xmmYmmOpmaskZmm {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, b, _, _ := cpuid(7, 0)
	return b&(avx512f|avx512dq) == avx512f|avx512dq
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32
