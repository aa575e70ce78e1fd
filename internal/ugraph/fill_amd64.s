#include "textflag.h"

// One SplitMix64 draw for eight lanes, in three steps so that the eight
// lane groups of an edge interleave and the multiplier latency overlaps.
// S holds the lane states, T and U are scratch; Z8, Z9 and Z10 hold the
// broadcast increment and the two multipliers.
#define MIX1(S, T) \
	VPADDQ  Z8, S, S; \
	VPSRLQ  $30, S, T; \
	VPXORQ  S, T, T; \
	VPMULLQ Z9, T, T

#define MIX2(T, U) \
	VPSRLQ  $27, T, U; \
	VPXORQ  U, T, T; \
	VPMULLQ Z10, T, T

// MIX3 finishes the draw z and sets K to the lanes where
// float64(z>>11) < P·2^53 (Z12, broadcast); the ordered compare is false
// for a NaN threshold, as Float64() < P is.
#define MIX3(T, U, K) \
	VPSRLQ     $31, T, U; \
	VPXORQ     U, T, T; \
	VPSRLQ     $11, T, T; \
	VCVTUQQ2PD T, T; \
	VCMPPD     $0x11, Z12, T, K

// func fillKernelAVX512(state *[64]uint64, edges *Edge, n int, dst *uint64, stride int, keep uint64)
//
// For each of the n edge records (24 bytes, P at offset 16) it advances all
// 64 lane states once and stores the edge's lane mask, ANDed with keep, at
// dst, then steps dst by stride bytes. The lane states are loaded from and
// stored back to state, so consecutive calls continue the streams.
TEXT ·fillKernelAVX512(SB), NOSPLIT, $0-48
	MOVQ state+0(FP), AX
	MOVQ edges+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dst+24(FP), DI
	MOVQ stride+32(FP), DX
	MOVQ keep+40(FP), R8

	VMOVDQU64 0(AX), Z0
	VMOVDQU64 64(AX), Z1
	VMOVDQU64 128(AX), Z2
	VMOVDQU64 192(AX), Z3
	VMOVDQU64 256(AX), Z4
	VMOVDQU64 320(AX), Z5
	VMOVDQU64 384(AX), Z6
	VMOVDQU64 448(AX), Z7

	MOVQ         $0x9E3779B97F4A7C15, R9
	VPBROADCASTQ R9, Z8
	MOVQ         $0xBF58476D1CE4E5B9, R9
	VPBROADCASTQ R9, Z9
	MOVQ         $0x94D049BB133111EB, R9
	VPBROADCASTQ R9, Z10
	MOVQ         $0x4340000000000000, R9 // 2^53
	VPBROADCASTQ R9, Z11

	TESTQ CX, CX
	JZ    done

loop:
	VBROADCASTSD 16(SI), Z12
	VMULPD       Z11, Z12, Z12

	MIX1(Z0, Z16)
	MIX1(Z1, Z17)
	MIX1(Z2, Z18)
	MIX1(Z3, Z19)
	MIX1(Z4, Z20)
	MIX1(Z5, Z21)
	MIX1(Z6, Z22)
	MIX1(Z7, Z23)

	MIX2(Z16, Z24)
	MIX2(Z17, Z25)
	MIX2(Z18, Z26)
	MIX2(Z19, Z27)
	MIX2(Z20, Z28)
	MIX2(Z21, Z29)
	MIX2(Z22, Z30)
	MIX2(Z23, Z31)

	MIX3(Z16, Z24, K1)
	MIX3(Z17, Z25, K2)
	MIX3(Z18, Z26, K3)
	MIX3(Z19, Z27, K4)
	KMOVB K1, R10
	KMOVB K2, R11
	SHLQ  $8, R11
	ORQ   R11, R10
	KMOVB K3, R11
	SHLQ  $16, R11
	ORQ   R11, R10
	KMOVB K4, R11
	SHLQ  $24, R11
	ORQ   R11, R10

	MIX3(Z20, Z28, K1)
	MIX3(Z21, Z29, K2)
	MIX3(Z22, Z30, K3)
	MIX3(Z23, Z31, K4)
	KMOVB K1, R11
	SHLQ  $32, R11
	ORQ   R11, R10
	KMOVB K2, R11
	SHLQ  $40, R11
	ORQ   R11, R10
	KMOVB K3, R11
	SHLQ  $48, R11
	ORQ   R11, R10
	KMOVB K4, R11
	SHLQ  $56, R11
	ORQ   R11, R10

	ANDQ R8, R10
	MOVQ R10, (DI)
	ADDQ DX, DI
	ADDQ $24, SI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU64 Z0, 0(AX)
	VMOVDQU64 Z1, 64(AX)
	VMOVDQU64 Z2, 128(AX)
	VMOVDQU64 Z3, 192(AX)
	VMOVDQU64 Z4, 256(AX)
	VMOVDQU64 Z5, 320(AX)
	VMOVDQU64 Z6, 384(AX)
	VMOVDQU64 Z7, 448(AX)
	VZEROUPPER
	RET
