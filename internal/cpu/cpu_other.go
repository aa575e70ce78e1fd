//go:build !amd64

package cpu

// HasAVX512FDQ is false off amd64, where no AVX-512 kernel exists.
const HasAVX512FDQ = false
