//go:build !amd64

package ugraph

// hasFillKernel is false off amd64: every fill runs fillLanesPortable.
const hasFillKernel = false

func fillLanesKernel(edges []Edge, seeds []int64, dst []uint64, stride int) {
	panic("ugraph: fill kernel called without hardware support")
}
