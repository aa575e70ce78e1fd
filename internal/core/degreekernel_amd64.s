#include "textflag.h"

// Shuffle indices that interleave δA (first table), δR (second table) and
// Δp (VPERMPD, under the masks 0x24, 0x49 and 0x92) into eight records of
// three: the first, second and third ZMM of a block's output.
DATA incIdx<>+0(SB)/8, $0
DATA incIdx<>+8(SB)/8, $8
DATA incIdx<>+16(SB)/8, $0
DATA incIdx<>+24(SB)/8, $1
DATA incIdx<>+32(SB)/8, $9
DATA incIdx<>+40(SB)/8, $1
DATA incIdx<>+48(SB)/8, $2
DATA incIdx<>+56(SB)/8, $10
DATA incIdx<>+64(SB)/8, $2
DATA incIdx<>+72(SB)/8, $3
DATA incIdx<>+80(SB)/8, $11
DATA incIdx<>+88(SB)/8, $3
DATA incIdx<>+96(SB)/8, $4
DATA incIdx<>+104(SB)/8, $12
DATA incIdx<>+112(SB)/8, $4
DATA incIdx<>+120(SB)/8, $5
DATA incIdx<>+128(SB)/8, $13
DATA incIdx<>+136(SB)/8, $5
DATA incIdx<>+144(SB)/8, $6
DATA incIdx<>+152(SB)/8, $14
DATA incIdx<>+160(SB)/8, $6
DATA incIdx<>+168(SB)/8, $7
DATA incIdx<>+176(SB)/8, $15
DATA incIdx<>+184(SB)/8, $7
GLOBL incIdx<>(SB), RODATA|NOPTR, $192

// func degreeKernelAVX512(f *float64, idx *int32, inc *float64, counts *int32, nlev int, curDeg *float64, h float64, rel bool)
//
// Runs tracker.degreeSweep's step on eight edges of one level at a time.
// A level's edges share no vertex, so each lane gathers d_u(G') and d_v(G')
// from curDeg, computes exactly the scalar expressions in the same order
// (no fused multiply-add), and scatters the two updated degrees back. Per
// block of eight slots, idx holds u[8] then v[8] (int32) and f holds d_u(G),
// d_v(G), 1/d_u(G)², 1/d_v(G)² and p at byte offsets 0, 64, …, 256; inc
// receives one record per slot of the increments of d1Abs and d1Rel and
// the p change. A level's last block has count mod 8 live lanes (K1): the
// other lanes load nothing and store nothing but their own inc records.
//
// Z20–Z23 hold ½, 1, h and 0 and Z27, Z29 and Z30 the shuffle indices for
// the whole call; the other registers are per block.
TEXT ·degreeKernelAVX512(SB), NOSPLIT, $0-57
	MOVQ         f+0(FP), SI
	MOVQ         idx+8(FP), DI
	MOVQ         inc+16(FP), R12
	MOVQ         counts+24(FP), R8
	MOVQ         nlev+32(FP), R11
	MOVQ         curDeg+40(FP), DX
	VBROADCASTSD h+48(FP), Z22
	MOVBLZX      rel+56(FP), R9

	MOVQ         $0x3fe0000000000000, AX // 0.5
	VPBROADCASTQ AX, Z20
	MOVQ         $0x3ff0000000000000, AX // 1
	VPBROADCASTQ AX, Z21
	VPXORQ       Z23, Z23, Z23
	VMOVDQU64    incIdx<>+0(SB), Z29
	VMOVDQU64    incIdx<>+64(SB), Z30
	VMOVDQU64    incIdx<>+128(SB), Z27

	TESTQ R11, R11
	JZ    done

level:
	MOVLQSX (R8), AX // edges of the level not yet run
	ADDQ    $4, R8

block:
	// K1 = the low min(AX, 8) lanes.
	MOVQ    $8, BX
	CMPQ    AX, BX
	CMOVQLT AX, BX
	MOVL    $8, CX
	SUBL    BX, CX
	MOVL    $0xff, R10
	SHRL    CX, R10
	KMOVB   R10, K1

	VMOVDQU32.Z 0(DI), K1, Z0  // u
	VMOVDQU32.Z 32(DI), K1, Z1 // v
	KMOVB       K1, K2
	VGATHERDPD  (DX)(Y0*8), K2, Z2 // d_u(G')
	KMOVB       K1, K3
	VGATHERDPD  (DX)(Y1*8), K3, Z3 // d_v(G')
	VMOVUPD.Z   0(SI), K1, Z4      // d_u(G)
	VMOVUPD.Z   64(SI), K1, Z5     // d_v(G)
	VMOVUPD.Z   256(SI), K1, Z31   // old p
	VSUBPD      Z2, Z4, Z6         // δA(u)
	VSUBPD      Z3, Z5, Z7         // δA(v)

	TESTQ R9, R9
	JNZ   relative
	VADDPD Z7, Z6, Z8
	VMULPD Z20, Z8, Z8 // step (δA(u) + δA(v)) · ½
	JMP    stepped

relative:
	// π(u) = d_u(G), or 1 unless d_u(G) > 0.
	VCMPPD  $0x1e, Z23, Z4, K4 // d_u(G) > 0, ordered
	VCMPPD  $0x1e, Z23, Z5, K5
	VMOVAPD Z21, Z9
	VMOVAPD Z4, K4, Z9
	VMOVAPD Z21, Z10
	VMOVAPD Z5, K5, Z10
	VMULPD  Z6, Z10, Z11 // π(v)·δA(u)
	VMULPD  Z7, Z9, Z12  // π(u)·δA(v)
	VADDPD  Z12, Z11, Z11
	VADDPD  Z10, Z9, Z12
	VDIVPD  Z12, Z11, Z8 // step

stepped:
	VADDPD  Z8, Z31, Z14 // p = old + step
	VMULPD  Z8, Z22, Z13
	VADDPD  Z13, Z31, Z13 // capped = old + h·step
	// Entropy rises where |p−½| < |old−½|: compare the differences' bits
	// with the sign shifted out, unsigned.
	VSUBPD  Z20, Z14, Z15
	VSUBPD  Z20, Z31, Z16
	VPSLLQ  $1, Z15, Z15
	VPSLLQ  $1, Z16, Z16
	VPCMPUQ $1, Z16, Z15, K4
	VMOVAPD Z14, Z17
	VMOVAPD Z13, K4, Z17
	VCMPPD  $0x1e, Z21, Z14, K5 // p > 1, ordered
	VMOVAPD Z21, K5, Z17
	VCMPPD  $0x11, Z23, Z14, K6 // p < 0, ordered
	VMOVAPD Z23, K6, Z17        // Z17 = the new p

	// tracker.setProb's increments.
	VSUBPD    Z31, Z17, Z18 // Δp
	VSUBPD    Z18, Z6, Z19
	VSUBPD    Z18, Z7, Z24
	VMULPD    Z19, Z19, Z19
	VMULPD    Z6, Z6, Z25
	VSUBPD    Z25, Z19, Z19 // su
	VMULPD    Z24, Z24, Z24
	VMULPD    Z7, Z7, Z26
	VSUBPD    Z26, Z24, Z24 // sv
	VADDPD    Z24, Z19, Z25 // δA increment su + sv
	VMULPD.Z  128(SI), Z19, K1, Z26
	VMULPD.Z  192(SI), Z24, K1, Z9
	VADDPD    Z9, Z26, Z26 // δR increment su/d_u² + sv/d_v²
	VPSLLQ    $1, Z18, Z28
	VPTESTMQ  Z28, Z28, K4
	VMOVAPD.Z Z26, K4, Z26 // … and exactly 0 where Δp is ±0
	VADDPD    Z18, Z2, Z2
	VADDPD    Z18, Z3, Z3

	KMOVB       K1, K2
	VSCATTERDPD Z2, K2, (DX)(Y0*8)
	KMOVB       K1, K3
	VSCATTERDPD Z3, K3, (DX)(Y1*8)
	VMOVUPD     Z17, K1, 256(SI)

	// Interleave the increments into records (δA, δR, Δp).
	MOVL      $0x24, R10
	KMOVB     R10, K4
	MOVL      $0x49, R10
	KMOVB     R10, K5
	MOVL      $0x92, R10
	KMOVB     R10, K6
	VMOVAPD   Z25, Z4
	VPERMT2PD Z26, Z29, Z4
	VPERMPD   Z18, Z29, K4, Z4
	VMOVAPD   Z25, Z5
	VPERMT2PD Z26, Z30, Z5
	VPERMPD   Z18, Z30, K5, Z5
	VMOVAPD   Z25, Z6
	VPERMT2PD Z26, Z27, Z6
	VPERMPD   Z18, Z27, K6, Z6
	VMOVUPD   Z4, 0(R12)
	VMOVUPD   Z5, 64(R12)
	VMOVUPD   Z6, 128(R12)

	ADDQ $320, SI
	ADDQ $64, DI
	ADDQ $192, R12
	SUBQ $8, AX
	JG   block
	DECQ R11
	JNZ  level

done:
	VZEROUPPER
	RET

// func degreeVertsAVX512(f *float64, idx *int32, blocks int, origDeg, invSq *float64)
//
// Fills the d_u(G), d_v(G), 1/d_u(G)² and 1/d_v(G)² arrays of blocks
// consecutive blocks by gathering at their u and v, all eight lanes of
// each (idle lanes must name a valid vertex).
TEXT ·degreeVertsAVX512(SB), NOSPLIT, $0-40
	MOVQ f+0(FP), SI
	MOVQ idx+8(FP), DI
	MOVQ blocks+16(FP), CX
	MOVQ origDeg+24(FP), DX
	MOVQ invSq+32(FP), R8
	MOVL $0xff, AX
	KMOVB AX, K1

	TESTQ CX, CX
	JZ    vdone

vblock:
	VMOVDQU32  0(DI), K1, Z0  // u
	VMOVDQU32  32(DI), K1, Z1 // v
	KMOVB      K1, K2
	VGATHERDPD (DX)(Y0*8), K2, Z2
	KMOVB      K1, K3
	VGATHERDPD (DX)(Y1*8), K3, Z3
	KMOVB      K1, K4
	VGATHERDPD (R8)(Y0*8), K4, Z4
	KMOVB      K1, K5
	VGATHERDPD (R8)(Y1*8), K5, Z5
	VMOVUPD    Z2, 0(SI)
	VMOVUPD    Z3, 64(SI)
	VMOVUPD    Z4, 128(SI)
	VMOVUPD    Z5, 192(SI)
	ADDQ       $320, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        vblock

vdone:
	VZEROUPPER
	RET

// func addIncrements(inc *float64, at *int32, n int, acc *[3]float64)
//
// Scalar SSE2 adds in the order of at, so each sum has the bits of the Go
// loop; the only addition is a prefetch of the record 64 positions ahead
// (256 bytes of at), which the caller pads.
TEXT ·addIncrements(SB), NOSPLIT, $0-32
	MOVQ  inc+0(FP), SI
	MOVQ  at+8(FP), DI
	MOVQ  n+16(FP), CX
	MOVQ  acc+24(FP), DX
	MOVSD 0(DX), X0
	MOVSD 8(DX), X1
	MOVSD 16(DX), X2
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    adone
aloop:
	MOVLQSX    256(DI)(AX*4), R8
	PREFETCHT0 (SI)(R8*8)
	MOVLQSX    (DI)(AX*4), R8
	ADDSD      (SI)(R8*8), X0
	ADDSD      8(SI)(R8*8), X1
	SUBSD      16(SI)(R8*8), X2
	INCQ       AX
	CMPQ       AX, CX
	JLT        aloop
adone:
	MOVSD X0, 0(DX)
	MOVSD X1, 8(DX)
	MOVSD X2, 16(DX)
	RET
