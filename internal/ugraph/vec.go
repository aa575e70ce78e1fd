package ugraph

import "math/bits"

// Vec is the word-vector type behind the variable-width bit-parallel world
// engine: an array of machine words carrying one world lane per bit, so
// [1]uint64 is the 64-lane engine and [4]uint64 the 256-lane one. Lane l
// lives in bit l%64 of word l/64 — a V-wide batch is laid out exactly like
// len(V) consecutive 64-lane batches interleaved per edge, which is what
// lets width-agnostic caches (FillCache) serve every width from the same
// 64-lane blocks.
//
// The helpers below are the whole-vector bit operations the traversal
// kernels are written against; each instantiates to straight-line word ops
// with no loops or branches at the widths in the constraint.
type Vec interface {
	[1]uint64 | [4]uint64
}

// The two engine widths. Aliases, not defined types, so vector literals
// and plain array indexing interoperate freely with the generic kernels.
type (
	// Vec64 is the one-word, 64-lane vector (the PR 4 engine width).
	Vec64 = [1]uint64
	// Vec256 is the four-word, 256-lane vector.
	Vec256 = [4]uint64
)

// VecLanes reports the lane count of V: 64 bits per word.
func VecLanes[V Vec]() int {
	var v V
	return len(v) * 64
}

// VecOnes returns the vector with the low n lane bits set (the active mask
// of an n-lane batch). n must be in [0, VecLanes[V]()].
func VecOnes[V Vec](n int) V {
	var v V
	for i := 0; i < len(v); i++ {
		switch {
		case n >= 64:
			v[i] = ^uint64(0)
			n -= 64
		case n > 0:
			v[i] = 1<<uint(n) - 1
			n = 0
		}
	}
	return v
}

// VecAnd returns a & b.
func VecAnd[V Vec](a, b V) V {
	for i := 0; i < len(a); i++ {
		a[i] &= b[i]
	}
	return a
}

// VecOr returns a | b.
func VecOr[V Vec](a, b V) V {
	for i := 0; i < len(a); i++ {
		a[i] |= b[i]
	}
	return a
}

// VecAndNot returns a &^ b.
func VecAndNot[V Vec](a, b V) V {
	for i := 0; i < len(a); i++ {
		a[i] &^= b[i]
	}
	return a
}

// VecFrontier returns f & m &^ r — the one fused operation of the mask-BFS
// inner loop (frontier lanes that the edge transmits and that have not yet
// reached the target).
func VecFrontier[V Vec](f, m, r V) V {
	for i := 0; i < len(f); i++ {
		f[i] = f[i] & m[i] &^ r[i]
	}
	return f
}

// VecIsZero reports whether no lane bit is set.
func VecIsZero[V Vec](v V) bool {
	var acc uint64
	for i := 0; i < len(v); i++ {
		acc |= v[i]
	}
	return acc == 0
}

// VecOnesCount counts the set lane bits.
func VecOnesCount[V Vec](v V) int {
	n := 0
	for i := 0; i < len(v); i++ {
		n += bits.OnesCount64(v[i])
	}
	return n
}

// VecBit reports lane l of v.
func VecBit[V Vec](v V, l int) bool {
	return v[uint(l)>>6]>>(uint(l)&63)&1 == 1
}

// VecSetBit returns v with lane l set.
func VecSetBit[V Vec](v V, l int) V {
	v[uint(l)>>6] |= 1 << (uint(l) & 63)
	return v
}
