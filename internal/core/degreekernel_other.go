//go:build !amd64

package core

// hasDegreeKernel is false off amd64: every degree-rule sweep runs
// tracker.degreeSweep.
const hasDegreeKernel = false

func degreeKernelAVX512(f *float64, idx *int32, inc *float64, counts *int32, nlev int, curDeg *float64, h float64, rel bool) {
	panic("core: degree kernel called without hardware support")
}

func degreeVertsAVX512(f *float64, idx *int32, blocks int, origDeg, invSq *float64) {
	panic("core: degree kernel called without hardware support")
}

func addIncrements(inc *float64, at *int32, n int, acc *[3]float64) {
	panic("core: degree kernel called without hardware support")
}
