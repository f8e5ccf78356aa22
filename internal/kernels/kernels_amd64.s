//go:build !purego

#include "textflag.h"

// The vector bodies of axpy4, axpy and dots8 (kernels.go) and of ProbeRow
// and NonZeros (probe.go). Each computes every
// element with the multiplies and adds of the Go body, in its order and
// with its operand order, one VMULPD or VADDPD per scalar MULSD or ADDSD,
// and never fuses them (no FMA): each lane's result has the Go body's
// bits, NaN payloads included. In Go's three-operand syntax
// "VADDPD b, a, d" is d = a + b, and a is the operand whose NaN an
// operation returns when both are NaN, as it is for the destination of the
// scalar ADDSD.
//
// Each body does the 4-aligned prefix of its loop (dots8Vec: the entries
// whose panel row lies inside the panel) and returns the number of
// elements done, 0 when useAVX2 is false; the Go body does the rest. Each
// bounds itself by its own slices' lengths.

// func hasAVX2() bool
//
// CPUID leaf 1 for AVX and OSXSAVE, XGETBV for the OS saving the XMM and YMM
// state, CPUID leaf 7 for AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL CX, CX
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM (bit 1), YMM (bit 2)
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX // AVX2 (bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpy4Vec(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) int
//
// y[i] += a0·x0[i] + a1·x1[i] + a2·x2[i] + a3·x3[i] for i below the
// shortest length rounded down to 4. The Go body's ADDSDs compute
// (x3a3 + (x2a2 + (x1a1 + x0a0))) + y, each product as x·a.
TEXT ·axpy4Vec(SB), NOSPLIT, $0-160
	XORQ    AX, AX
	CMPB    ·useAVX2(SB), $0
	JEQ     axpy4done
	MOVQ    y_len+8(FP), CX
	MOVQ    x0_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVQ    x1_len+56(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVQ    x2_len+80(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVQ    x3_len+104(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	ANDQ    $~3, CX
	JZ      axpy4done

	MOVQ         y_base+0(FP), DI
	MOVQ         x0_base+24(FP), R8
	MOVQ         x1_base+48(FP), R9
	MOVQ         x2_base+72(FP), R10
	MOVQ         x3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3

axpy4loop:
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y0, Y4, Y4         // x0·a0
	VMOVUPD (R9)(AX*8), Y5
	VMULPD  Y1, Y5, Y5         // x1·a1
	VADDPD  Y4, Y5, Y5         // x1a1 + x0a0
	VMOVUPD (R10)(AX*8), Y4
	VMULPD  Y2, Y4, Y4         // x2·a2
	VADDPD  Y5, Y4, Y4         // x2a2 + s
	VMOVUPD (R11)(AX*8), Y5
	VMULPD  Y3, Y5, Y5         // x3·a3
	VADDPD  Y4, Y5, Y5         // x3a3 + s
	VADDPD  (DI)(AX*8), Y5, Y5 // s + y
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     axpy4loop
	VZEROUPPER

axpy4done:
	MOVQ AX, ret+152(FP)
	RET

// func axpyVec(y, x []float64, alpha float64) int
//
// y[i] += alpha·x[i] for i below the shorter length rounded down to 4, as
// (x·alpha) + y. For alpha == 1 it only adds, y + x: the Go body's add-only
// loop puts y first, so where both are NaN it returns y's, where x·1 + y
// would return x's.
TEXT ·axpyVec(SB), NOSPLIT, $0-64
	XORQ    AX, AX
	CMPB    ·useAVX2(SB), $0
	JEQ     axpydone
	MOVQ    y_len+8(FP), CX
	MOVQ    x_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	ANDQ    $~3, CX
	JZ      axpydone

	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ alpha+48(FP), DX
	MOVQ $0x3ff0000000000000, BX // 1.0, the one float64 equal to 1
	CMPQ DX, BX
	JEQ  addloop
	VBROADCASTSD alpha+48(FP), Y0

axpyloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1         // x·alpha
	VADDPD  (DI)(AX*8), Y1, Y1 // p + y
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     axpyloop
	VZEROUPPER
	JMP     axpydone

addloop:
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  (SI)(AX*8), Y1, Y1 // y + x
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     addloop
	VZEROUPPER

axpydone:
	MOVQ AX, ret+56(FP)
	RET

// func probeVec(row, x1, x2 []float64, lanes *[8]float64) (int, int64)
//
// ProbeRow's lanes over the cells below the shortest length rounded down to
// 4: lane k of a sum adds row[c]·x[c] for the cells c ≡ k mod 4, in
// ascending c, as s + (x·v) from s = 0 (the Go body's operand order). The
// count compares each cell not-equal-or-unordered with zero, so a NaN
// counts and −0 does not, and subtracts the all-ones mask from four
// counters.
TEXT ·probeVec(SB), NOSPLIT, $0-96
	XORQ    AX, AX
	XORQ    BX, BX
	CMPB    ·useAVX2(SB), $0
	JEQ     probedone
	MOVQ    row_len+8(FP), CX
	MOVQ    x1_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVQ    x2_len+56(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	ANDQ    $~3, CX
	JZ      probedone

	MOVQ   row_base+0(FP), SI
	MOVQ   x1_base+24(FP), R8
	MOVQ   x2_base+48(FP), R9
	VXORPD Y0, Y0, Y0 // x1's lanes
	VXORPD Y1, Y1, Y1 // x2's lanes
	VPXOR  Y2, Y2, Y2 // counts
	VXORPD Y3, Y3, Y3 // zero

probeloop:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD (R8)(AX*8), Y5
	VMULPD  Y4, Y5, Y5         // x1·v
	VADDPD  Y5, Y0, Y0         // s1 + p
	VMOVUPD (R9)(AX*8), Y6
	VMULPD  Y4, Y6, Y6         // x2·v
	VADDPD  Y6, Y1, Y1         // s2 + p
	VCMPPD  $4, Y3, Y4, Y7     // v != 0 (NEQ_UQ): all ones
	VPSUBQ  Y7, Y2, Y2         // count − (−1)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     probeloop

	MOVQ         lanes+72(FP), DI
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0x4e, X2, X3
	VPADDQ       X3, X2, X2
	VZEROUPPER
	MOVQ         X2, BX

probedone:
	MOVQ AX, ret+80(FP)
	MOVQ BX, ret1+88(FP)
	RET

// func nonZerosVec(row []float64) (int, int64)
//
// probeVec's count alone, over row's length rounded down to 4.
TEXT ·nonZerosVec(SB), NOSPLIT, $0-40
	XORQ AX, AX
	XORQ BX, BX
	CMPB ·useAVX2(SB), $0
	JEQ  nzdone
	MOVQ row_len+8(FP), CX
	ANDQ $~3, CX
	JZ   nzdone

	MOVQ   row_base+0(FP), SI
	VPXOR  Y2, Y2, Y2 // counts
	VXORPD Y3, Y3, Y3 // zero

nzloop:
	VCMPPD $4, (SI)(AX*8), Y3, Y7 // v != 0 (NEQ_UQ): all ones
	VPSUBQ Y7, Y2, Y2
	ADDQ   $4, AX
	CMPQ   AX, CX
	JLT    nzloop

	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0x4e, X2, X3
	VPADDQ       X3, X2, X2
	VZEROUPPER
	MOVQ         X2, BX

nzdone:
	MOVQ AX, ret+24(FP)
	MOVQ BX, ret1+32(FP)
	RET

// func dots8Vec(panel []float64, ks []int32, vs []float64, acc *[8]float64) int
//
// dots8's lanes: for each entry q below the shorter of ks and vs, in order,
// acc[r] + (panel[k*8+r]·vs[q]) for the eight lanes r, with k = ks[q]; lanes
// 0–3 in one register, 4–7 in another. It stops before the first k whose
// panel row is not wholly inside panel (a negative k too, compared
// unsigned).
TEXT ·dots8Vec(SB), NOSPLIT, $0-88
	XORQ    AX, AX
	CMPB    ·useAVX2(SB), $0
	JEQ     dotsdone
	MOVQ    ks_len+32(FP), CX
	MOVQ    vs_len+56(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	TESTQ   CX, CX
	JZ      dotsdone

	MOVQ    panel_base+0(FP), SI
	MOVQ    panel_len+8(FP), R8
	SHRQ    $3, R8 // whole panel rows
	MOVQ    ks_base+24(FP), R9
	MOVQ    vs_base+48(FP), R10
	MOVQ    acc+72(FP), DI
	VMOVUPD (DI), Y0   // lanes 0–3
	VMOVUPD 32(DI), Y1 // lanes 4–7

dotsloop:
	MOVLQSX      (R9)(AX*4), BX
	CMPQ         BX, R8
	JCC          dotsstore // k ≥ rows, unsigned
	SHLQ         $6, BX    // k·8 cells of 8 bytes
	VBROADCASTSD (R10)(AX*8), Y2
	VMOVUPD      (SI)(BX*1), Y3
	VMULPD       Y2, Y3, Y3 // a·v
	VADDPD       Y3, Y0, Y0 // s + p
	VMOVUPD      32(SI)(BX*1), Y4
	VMULPD       Y2, Y4, Y4
	VADDPD       Y4, Y1, Y1
	INCQ         AX
	CMPQ         AX, CX
	JLT          dotsloop

dotsstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER

dotsdone:
	MOVQ AX, ret+80(FP)
	RET
