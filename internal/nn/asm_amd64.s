// AVX2+FMA kernels for the batched NN hot path. Selected at runtime via
// cpuHasAVX2FMA (CPUID + XGETBV); the pure-Go scalar kernels in batch.go
// remain the portable fallback. Accumulation order inside each routine is
// fixed, so results are bit-identical run to run on the same machine.

#include "textflag.h"

// func cpuHasAVX2FMA() bool
// True when the CPU supports FMA, AVX2 and the OS saves YMM state.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	CPUID
	// ECX bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL	CX, R8
	ANDL	$0x18001000, R8
	CMPL	R8, $0x18001000
	JNE	no
	// XCR0 bits 1:2 — SSE and YMM state enabled by the OS.
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	no
	// Leaf 7 EBX bit 5 = AVX2.
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x20, BX
	JZ	no
	MOVB	$1, ret+0(FP)
	RET
no:
	MOVB	$0, ret+0(FP)
	RET

// func dotAsm(a, b []float64) float64
// Dot product over len(a) elements (caller guarantees len(b) >= len(a)).
// Four 4-wide FMA accumulators, reduced in a fixed order.
TEXT ·dotAsm(SB), NOSPLIT, $0-56
	MOVQ	a_base+0(FP), SI
	MOVQ	b_base+24(FP), DI
	MOVQ	a_len+8(FP), CX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	CX, DX
	SHRQ	$4, DX
	JZ	dot_tail4
dot_loop16:
	VMOVUPD	(SI), Y4
	VMOVUPD	32(SI), Y5
	VMOVUPD	64(SI), Y6
	VMOVUPD	96(SI), Y7
	VFMADD231PD	(DI), Y4, Y0
	VFMADD231PD	32(DI), Y5, Y1
	VFMADD231PD	64(DI), Y6, Y2
	VFMADD231PD	96(DI), Y7, Y3
	ADDQ	$128, SI
	ADDQ	$128, DI
	DECQ	DX
	JNZ	dot_loop16
dot_tail4:
	ANDQ	$15, CX
	MOVQ	CX, DX
	SHRQ	$2, DX
	JZ	dot_tail1
dot_loop4:
	VMOVUPD	(SI), Y4
	VFMADD231PD	(DI), Y4, Y0
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	DX
	JNZ	dot_loop4
dot_tail1:
	ANDQ	$3, CX
	// Reduce the four accumulators: ((Y0+Y1)+(Y2+Y3)), then lanes.
	VADDPD	Y1, Y0, Y0
	VADDPD	Y3, Y2, Y2
	VADDPD	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VADDPD	X1, X0, X0
	VHADDPD	X0, X0, X0
	JZ	dot_done
dot_scalar:
	VMOVSD	(SI), X2
	VMOVSD	(DI), X3
	VFMADD231SD	X3, X2, X0
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	dot_scalar
dot_done:
	VMOVSD	X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyAsm(dst, x []float64, alpha float64)
// dst[i] += alpha * x[i] over len(dst) elements (caller guarantees
// len(x) >= len(dst)).
TEXT ·axpyAsm(SB), NOSPLIT, $0-56
	MOVQ	dst_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	dst_len+8(FP), CX
	VBROADCASTSD	alpha+48(FP), Y8
	MOVQ	CX, DX
	SHRQ	$4, DX
	JZ	axpy_tail4
axpy_loop16:
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VFMADD231PD	(SI), Y8, Y0
	VFMADD231PD	32(SI), Y8, Y1
	VFMADD231PD	64(SI), Y8, Y2
	VFMADD231PD	96(SI), Y8, Y3
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	DECQ	DX
	JNZ	axpy_loop16
axpy_tail4:
	ANDQ	$15, CX
	MOVQ	CX, DX
	SHRQ	$2, DX
	JZ	axpy_tail1
axpy_loop4:
	VMOVUPD	(DI), Y0
	VFMADD231PD	(SI), Y8, Y0
	VMOVUPD	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	DX
	JNZ	axpy_loop4
axpy_tail1:
	ANDQ	$3, CX
	JZ	axpy_done
axpy_scalar:
	VMOVSD	(DI), X0
	VMOVSD	(SI), X1
	VFMADD231SD	X1, X8, X0
	VMOVSD	X0, (DI)
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	axpy_scalar
axpy_done:
	VZEROUPPER
	RET

// The per-layer kernels below make one call per layer. Each is defined by a
// loop of dotAsm/axpyAsm calls, one per (row, output), kept as an oracle in
// kernels_ref_test.go: element for element it performs the same IEEE
// operations in the same order with the same operand roles, so its results
// are bit-identical and only call, loop and tail overhead goes away.

// Masks for a partial 16-column tile: the 16 qwords at tailmask<>+8*(16-n)
// enable exactly the first n lanes (1 <= n <= 15).
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $-1
DATA tailmask<>+72(SB)/8, $-1
DATA tailmask<>+80(SB)/8, $-1
DATA tailmask<>+88(SB)/8, $-1
DATA tailmask<>+96(SB)/8, $-1
DATA tailmask<>+104(SB)/8, $-1
DATA tailmask<>+112(SB)/8, $-1
DATA tailmask<>+120(SB)/8, $-1
DATA tailmask<>+128(SB)/8, $0
DATA tailmask<>+136(SB)/8, $0
DATA tailmask<>+144(SB)/8, $0
DATA tailmask<>+152(SB)/8, $0
DATA tailmask<>+160(SB)/8, $0
DATA tailmask<>+168(SB)/8, $0
DATA tailmask<>+176(SB)/8, $0
DATA tailmask<>+184(SB)/8, $0
DATA tailmask<>+192(SB)/8, $0
DATA tailmask<>+200(SB)/8, $0
DATA tailmask<>+208(SB)/8, $0
DATA tailmask<>+216(SB)/8, $0
DATA tailmask<>+224(SB)/8, $0
DATA tailmask<>+232(SB)/8, $0
DATA tailmask<>+240(SB)/8, $0
DATA tailmask<>+248(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $256

// LOADMASKS(n, tmp) loads the partial-tile masks for n columns into Y10-Y13
// (clobbers R13).
#define LOADMASKS(n, tmp) \
	MOVQ	$16, tmp; \
	SUBQ	n, tmp; \
	SHLQ	$3, tmp; \
	LEAQ	tailmask<>(SB), R13; \
	ADDQ	R13, tmp; \
	VMOVUPD	(tmp), Y10; \
	VMOVUPD	32(tmp), Y11; \
	VMOVUPD	64(tmp), Y12; \
	VMOVUPD	96(tmp), Y13

// DOT_REDUCE(a0, a1, a2, a3, t) folds dotAsm's four accumulators into the
// low lane of a0 in its fixed order: ((a0+a1)+(a2+a3)), then the two
// 128-bit halves, then the horizontal pair. It does not touch the flags.
#define DOT_REDUCE(a0, a1, a2, a3, x0, t) \
	VADDPD	a1, a0, a0; \
	VADDPD	a3, a2, a2; \
	VADDPD	a2, a0, a0; \
	VEXTRACTF128	$1, a0, t; \
	VADDPD	t, x0, x0; \
	VHADDPD	x0, x0, x0

// func matmulNTAsm(dst, src, w, bias []float64, b, in, out int)
// dst[r*out+o] = dot(w[o*in:(o+1)*in], src[r*in:(r+1)*in]) + bias[o], each
// dot computed exactly as dotAsm computes it (four 4-wide FMA accumulators
// over 16-element blocks, 4-element blocks into the first, DOT_REDUCE, then
// scalar FMAs, with the weight as the multiplier register and the input as
// the memory operand), and the bias added with the dot as the first
// operand, as the Go loop compiles it. Rows go in pairs that share each
// weight load (Y0-Y3 and Y8-Y11 accumulate rows r and r+1); an odd last
// row runs alone.
TEXT ·matmulNTAsm(SB), NOSPLIT, $0-120
	MOVQ	dst_base+0(FP), R8
	MOVQ	src_base+24(FP), R9
	MOVQ	w_base+48(FP), R10
	MOVQ	b+96(FP), R12
	MOVQ	in+104(FP), BX
	LEAQ	(BX*8), AX
	MOVQ	out+112(FP), R14
	SHLQ	$3, R14
	SHRQ	$1, R12
	JZ	mm_single
mm_pair:
	MOVQ	R10, SI
	MOVQ	bias_base+72(FP), R11
	MOVQ	out+112(FP), R13
mm_pout:
	MOVQ	R9, DI
	MOVQ	BX, CX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y8, Y8, Y8
	VXORPD	Y9, Y9, Y9
	VXORPD	Y10, Y10, Y10
	VXORPD	Y11, Y11, Y11
	MOVQ	CX, DX
	SHRQ	$4, DX
	JZ	mm_ptail4
mm_ploop16:
	VMOVUPD	(SI), Y4
	VMOVUPD	32(SI), Y5
	VMOVUPD	64(SI), Y6
	VMOVUPD	96(SI), Y7
	VFMADD231PD	(DI), Y4, Y0
	VFMADD231PD	32(DI), Y5, Y1
	VFMADD231PD	64(DI), Y6, Y2
	VFMADD231PD	96(DI), Y7, Y3
	VFMADD231PD	(DI)(AX*1), Y4, Y8
	VFMADD231PD	32(DI)(AX*1), Y5, Y9
	VFMADD231PD	64(DI)(AX*1), Y6, Y10
	VFMADD231PD	96(DI)(AX*1), Y7, Y11
	ADDQ	$128, SI
	ADDQ	$128, DI
	DECQ	DX
	JNZ	mm_ploop16
mm_ptail4:
	ANDQ	$15, CX
	MOVQ	CX, DX
	SHRQ	$2, DX
	JZ	mm_ptail1
mm_ploop4:
	VMOVUPD	(SI), Y4
	VFMADD231PD	(DI), Y4, Y0
	VFMADD231PD	(DI)(AX*1), Y4, Y8
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	DX
	JNZ	mm_ploop4
mm_ptail1:
	ANDQ	$3, CX
	DOT_REDUCE(Y0, Y1, Y2, Y3, X0, X1)
	DOT_REDUCE(Y8, Y9, Y10, Y11, X8, X9)
	JZ	mm_pbias
mm_pscalar:
	VMOVSD	(SI), X2
	VFMADD231SD	(DI), X2, X0
	VFMADD231SD	(DI)(AX*1), X2, X8
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	mm_pscalar
mm_pbias:
	VADDSD	(R11), X0, X0
	VADDSD	(R11), X8, X8
	VMOVSD	X0, (R8)
	VMOVSD	X8, (R8)(R14*1)
	ADDQ	$8, R8
	ADDQ	$8, R11
	DECQ	R13
	JNZ	mm_pout
	ADDQ	R14, R8
	LEAQ	(R9)(AX*2), R9
	DECQ	R12
	JNZ	mm_pair
mm_single:
	MOVQ	b+96(FP), R12
	ANDQ	$1, R12
	JZ	mm_done
	MOVQ	R10, SI
	MOVQ	bias_base+72(FP), R11
	MOVQ	out+112(FP), R13
mm_out:
	MOVQ	R9, DI
	MOVQ	BX, CX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	CX, DX
	SHRQ	$4, DX
	JZ	mm_tail4
mm_loop16:
	VMOVUPD	(SI), Y4
	VMOVUPD	32(SI), Y5
	VMOVUPD	64(SI), Y6
	VMOVUPD	96(SI), Y7
	VFMADD231PD	(DI), Y4, Y0
	VFMADD231PD	32(DI), Y5, Y1
	VFMADD231PD	64(DI), Y6, Y2
	VFMADD231PD	96(DI), Y7, Y3
	ADDQ	$128, SI
	ADDQ	$128, DI
	DECQ	DX
	JNZ	mm_loop16
mm_tail4:
	ANDQ	$15, CX
	MOVQ	CX, DX
	SHRQ	$2, DX
	JZ	mm_tail1
mm_loop4:
	VMOVUPD	(SI), Y4
	VFMADD231PD	(DI), Y4, Y0
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	DX
	JNZ	mm_loop4
mm_tail1:
	ANDQ	$3, CX
	DOT_REDUCE(Y0, Y1, Y2, Y3, X0, X1)
	JZ	mm_bias
mm_scalar:
	VMOVSD	(SI), X2
	VFMADD231SD	(DI), X2, X0
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	mm_scalar
mm_bias:
	VADDSD	(R11), X0, X0
	VMOVSD	X0, (R8)
	ADDQ	$8, R8
	ADDQ	$8, R11
	DECQ	R13
	JNZ	mm_out
mm_done:
	VZEROUPPER
	RET

// FMA_SKIPZERO(skip) broadcasts the coefficient at (DX) into Y8 and jumps
// to skip when it compares equal to zero (X9): ±0 skips, NaN does not,
// matching the Go loops' `if d != 0`.
#define FMA_SKIPZERO(skip) \
	VBROADCASTSD	(DX), Y8; \
	VUCOMISD	X9, X8; \
	JNE	2(PC); \
	JPC	skip

// func fmaRowsAsm(dst, coef, src []float64, rows, k, n, cRow, cStep int)
// For each row d < rows and each j < k, with c = coef[d*cRow+j*cStep]:
// when c != 0, dst[d*n+i] = fma(c, src[j*n+i], dst[d*n+i]) for i < n, the
// j loop running in order. Each element sees exactly the FMAs, in exactly
// the order, that a sequence of axpyAsm calls would apply to it; the tile
// stays in registers across the j loop. Tiles are 32 full columns while
// they last; a remainder of 17..31 columns is one tile of 16 full and up to
// 16 masked columns, and a remainder of 1..16 one full or masked 16-column
// tile.
TEXT ·fmaRowsAsm(SB), NOSPLIT, $0-112
	MOVQ	dst_base+0(FP), DI
	MOVQ	coef_base+24(FP), R8
	MOVQ	src_base+48(FP), BX
	MOVQ	rows+72(FP), R12
	MOVQ	n+88(FP), R11
	SHLQ	$3, R11
	MOVQ	cRow+96(FP), R9
	SHLQ	$3, R9
	MOVQ	cStep+104(FP), R10
	SHLQ	$3, R10
	VXORPD	X9, X9, X9
fr_row:
	MOVQ	DI, AX
	MOVQ	n+88(FP), CX
fr_tile32:
	CMPQ	CX, $32
	JLT	fr_tile16m
	VMOVUPD	(AX), Y0
	VMOVUPD	32(AX), Y1
	VMOVUPD	64(AX), Y2
	VMOVUPD	96(AX), Y3
	VMOVUPD	128(AX), Y4
	VMOVUPD	160(AX), Y5
	VMOVUPD	192(AX), Y6
	VMOVUPD	224(AX), Y7
	MOVQ	AX, SI
	SUBQ	DI, SI
	ADDQ	BX, SI
	MOVQ	R8, DX
	MOVQ	k+80(FP), R14
fr_loop32:
	FMA_SKIPZERO(fr_skip32)
	VFMADD231PD	(SI), Y8, Y0
	VFMADD231PD	32(SI), Y8, Y1
	VFMADD231PD	64(SI), Y8, Y2
	VFMADD231PD	96(SI), Y8, Y3
	VFMADD231PD	128(SI), Y8, Y4
	VFMADD231PD	160(SI), Y8, Y5
	VFMADD231PD	192(SI), Y8, Y6
	VFMADD231PD	224(SI), Y8, Y7
fr_skip32:
	ADDQ	R10, DX
	ADDQ	R11, SI
	DECQ	R14
	JNZ	fr_loop32
	VMOVUPD	Y0, (AX)
	VMOVUPD	Y1, 32(AX)
	VMOVUPD	Y2, 64(AX)
	VMOVUPD	Y3, 96(AX)
	VMOVUPD	Y4, 128(AX)
	VMOVUPD	Y5, 160(AX)
	VMOVUPD	Y6, 192(AX)
	VMOVUPD	Y7, 224(AX)
	ADDQ	$256, AX
	SUBQ	$32, CX
	JMP	fr_tile32
fr_tile16m:
	CMPQ	CX, $16
	JLE	fr_tile16
	MOVQ	CX, R14
	SUBQ	$16, R14
	LOADMASKS(R14, SI)
	VMOVUPD	(AX), Y0
	VMOVUPD	32(AX), Y1
	VMOVUPD	64(AX), Y2
	VMOVUPD	96(AX), Y3
	VMASKMOVPD	128(AX), Y10, Y4
	VMASKMOVPD	160(AX), Y11, Y5
	VMASKMOVPD	192(AX), Y12, Y6
	VMASKMOVPD	224(AX), Y13, Y7
	MOVQ	AX, SI
	SUBQ	DI, SI
	ADDQ	BX, SI
	MOVQ	R8, DX
	MOVQ	k+80(FP), R14
fr_loop16m:
	FMA_SKIPZERO(fr_skip16m)
	VFMADD231PD	(SI), Y8, Y0
	VFMADD231PD	32(SI), Y8, Y1
	VFMADD231PD	64(SI), Y8, Y2
	VFMADD231PD	96(SI), Y8, Y3
	VMASKMOVPD	128(SI), Y10, Y14
	VFMADD231PD	Y14, Y8, Y4
	VMASKMOVPD	160(SI), Y11, Y14
	VFMADD231PD	Y14, Y8, Y5
	VMASKMOVPD	192(SI), Y12, Y14
	VFMADD231PD	Y14, Y8, Y6
	VMASKMOVPD	224(SI), Y13, Y14
	VFMADD231PD	Y14, Y8, Y7
fr_skip16m:
	ADDQ	R10, DX
	ADDQ	R11, SI
	DECQ	R14
	JNZ	fr_loop16m
	VMOVUPD	Y0, (AX)
	VMOVUPD	Y1, 32(AX)
	VMOVUPD	Y2, 64(AX)
	VMOVUPD	Y3, 96(AX)
	VMASKMOVPD	Y4, Y10, 128(AX)
	VMASKMOVPD	Y5, Y11, 160(AX)
	VMASKMOVPD	Y6, Y12, 192(AX)
	VMASKMOVPD	Y7, Y13, 224(AX)
	JMP	fr_next
fr_tile16:
	CMPQ	CX, $16
	JLT	fr_tail
	VMOVUPD	(AX), Y0
	VMOVUPD	32(AX), Y1
	VMOVUPD	64(AX), Y2
	VMOVUPD	96(AX), Y3
	MOVQ	AX, SI
	SUBQ	DI, SI
	ADDQ	BX, SI
	MOVQ	R8, DX
	MOVQ	k+80(FP), R14
fr_loop16:
	FMA_SKIPZERO(fr_skip16)
	VFMADD231PD	(SI), Y8, Y0
	VFMADD231PD	32(SI), Y8, Y1
	VFMADD231PD	64(SI), Y8, Y2
	VFMADD231PD	96(SI), Y8, Y3
fr_skip16:
	ADDQ	R10, DX
	ADDQ	R11, SI
	DECQ	R14
	JNZ	fr_loop16
	VMOVUPD	Y0, (AX)
	VMOVUPD	Y1, 32(AX)
	VMOVUPD	Y2, 64(AX)
	VMOVUPD	Y3, 96(AX)
	ADDQ	$128, AX
	SUBQ	$16, CX
fr_tail:
	TESTQ	CX, CX
	JZ	fr_next
	LOADMASKS(CX, SI)
	VMASKMOVPD	(AX), Y10, Y0
	VMASKMOVPD	32(AX), Y11, Y1
	VMASKMOVPD	64(AX), Y12, Y2
	VMASKMOVPD	96(AX), Y13, Y3
	MOVQ	AX, SI
	SUBQ	DI, SI
	ADDQ	BX, SI
	MOVQ	R8, DX
	MOVQ	k+80(FP), R14
fr_looptail:
	FMA_SKIPZERO(fr_skiptail)
	VMASKMOVPD	(SI), Y10, Y4
	VMASKMOVPD	32(SI), Y11, Y5
	VMASKMOVPD	64(SI), Y12, Y6
	VMASKMOVPD	96(SI), Y13, Y7
	VFMADD231PD	Y4, Y8, Y0
	VFMADD231PD	Y5, Y8, Y1
	VFMADD231PD	Y6, Y8, Y2
	VFMADD231PD	Y7, Y8, Y3
fr_skiptail:
	ADDQ	R10, DX
	ADDQ	R11, SI
	DECQ	R14
	JNZ	fr_looptail
	VMASKMOVPD	Y0, Y10, (AX)
	VMASKMOVPD	Y1, Y11, 32(AX)
	VMASKMOVPD	Y2, Y12, 64(AX)
	VMASKMOVPD	Y3, Y13, 96(AX)
fr_next:
	ADDQ	R11, DI
	ADDQ	R9, R8
	DECQ	R12
	JNZ	fr_row
	VZEROUPPER
	RET

// func colSumAddAsm(gb, delta []float64, b, out int)
// gb[o] = s_o + gb[o] with s_o = ((0 + delta[0][o]) + delta[1][o]) + ...
// over the b rows of the row-major [b x out] delta: the bias-gradient fold
// of accumGrads, running the columns side by side in vector lanes (four
// registers, then one, then scalar columns) so each keeps its sequential
// sum.
TEXT ·colSumAddAsm(SB), NOSPLIT, $0-64
	MOVQ	gb_base+0(FP), AX
	MOVQ	delta_base+24(FP), BX
	MOVQ	out+56(FP), CX
	MOVQ	CX, R11
	SHLQ	$3, R11
cs_tile16:
	CMPQ	CX, $16
	JLT	cs_tile4
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	BX, SI
	MOVQ	b+48(FP), R14
cs_loop16:
	VADDPD	(SI), Y0, Y0
	VADDPD	32(SI), Y1, Y1
	VADDPD	64(SI), Y2, Y2
	VADDPD	96(SI), Y3, Y3
	ADDQ	R11, SI
	DECQ	R14
	JNZ	cs_loop16
	VADDPD	(AX), Y0, Y0
	VADDPD	32(AX), Y1, Y1
	VADDPD	64(AX), Y2, Y2
	VADDPD	96(AX), Y3, Y3
	VMOVUPD	Y0, (AX)
	VMOVUPD	Y1, 32(AX)
	VMOVUPD	Y2, 64(AX)
	VMOVUPD	Y3, 96(AX)
	ADDQ	$128, AX
	ADDQ	$128, BX
	SUBQ	$16, CX
	JMP	cs_tile16
cs_tile4:
	CMPQ	CX, $4
	JLT	cs_col
	VXORPD	Y0, Y0, Y0
	MOVQ	BX, SI
	MOVQ	b+48(FP), R14
cs_loop4:
	VADDPD	(SI), Y0, Y0
	ADDQ	R11, SI
	DECQ	R14
	JNZ	cs_loop4
	VADDPD	(AX), Y0, Y0
	VMOVUPD	Y0, (AX)
	ADDQ	$32, AX
	ADDQ	$32, BX
	SUBQ	$4, CX
	JMP	cs_tile4
cs_col:
	TESTQ	CX, CX
	JZ	cs_done
	VXORPD	X0, X0, X0
	MOVQ	BX, SI
	MOVQ	b+48(FP), R14
cs_loop1:
	VADDSD	(SI), X0, X0
	ADDQ	R11, SI
	DECQ	R14
	JNZ	cs_loop1
	VADDSD	(AX), X0, X0
	VMOVSD	X0, (AX)
	ADDQ	$8, AX
	ADDQ	$8, BX
	DECQ	CX
	JMP	cs_col
cs_done:
	VZEROUPPER
	RET

// Constants of the 4-lane tanh port, each replicated across a 32-byte row.
// The values are bit patterns of math.Tanh's (tanh.go) and archExp's
// (exp_amd64.s) constants.
#define TC(off, bits) \
	DATA tanhconst<>+(off)(SB)/8, $bits; \
	DATA tanhconst<>+(off+8)(SB)/8, $bits; \
	DATA tanhconst<>+(off+16)(SB)/8, $bits; \
	DATA tanhconst<>+(off+24)(SB)/8, $bits

TC(0, 0x7fffffffffffffff)   // |x| mask
TC(32, 0x8000000000000000)  // sign mask
TC(64, 0xbfeedc5baafd6f4b)  // tanhP[0]
TC(96, 0xc058d26a0e26682d)  // tanhP[1]
TC(128, 0xc0993ac030580563) // tanhP[2]
TC(160, 0x405c33f28a581b86) // tanhQ[0]
TC(192, 0x40a176fa0e5535fa) // tanhQ[1]
TC(224, 0x40b2ec102442040c) // tanhQ[2]
TC(256, 0x3ff71547652b82fe) // LOG2E
TC(288, 0x3fe62e42fefa3000) // LN2U
TC(320, 0x3d53de6af278ece6) // LN2L
TC(352, 0x3fb0000000000000) // 0.0625
TC(384, 0x3efa01a01a01a01a) // 1/8!
TC(416, 0x3f2a01a01a01a01a) // 1/7!
TC(448, 0x3f56c16c16c16c17) // 1/6!
TC(480, 0x3f81111111111111) // 1/5!
TC(512, 0x3fa5555555555555) // 1/4!
TC(544, 0x3fc5555555555555) // 1/3!
TC(576, 0x3fe0000000000000) // 0.5
TC(608, 0x3ff0000000000000) // 1.0
TC(640, 0x4000000000000000) // 2.0
TC(672, 0x3fe4000000000000) // 0.625
TC(704, 0x404601e678fc457b) // 0.5*MAXLOG
TC(736, 0x000003ff000003ff) // exponent bias, as int32 lanes (low 16 bytes used)
GLOBL tanhconst<>(SB), RODATA|NOPTR, $768

#define T_ABS tanhconst<>+0(SB)
#define T_SIGN tanhconst<>+32(SB)
#define T_P0 tanhconst<>+64(SB)
#define T_P1 tanhconst<>+96(SB)
#define T_P2 tanhconst<>+128(SB)
#define T_Q0 tanhconst<>+160(SB)
#define T_Q1 tanhconst<>+192(SB)
#define T_Q2 tanhconst<>+224(SB)
#define T_LOG2E tanhconst<>+256(SB)
#define T_LN2U tanhconst<>+288(SB)
#define T_LN2L tanhconst<>+320(SB)
#define T_SIXTEENTH tanhconst<>+352(SB)
#define T_C8 tanhconst<>+384(SB)
#define T_C7 tanhconst<>+416(SB)
#define T_C6 tanhconst<>+448(SB)
#define T_C5 tanhconst<>+480(SB)
#define T_C4 tanhconst<>+512(SB)
#define T_C3 tanhconst<>+544(SB)
#define T_HALF tanhconst<>+576(SB)
#define T_ONE tanhconst<>+608(SB)
#define T_TWO tanhconst<>+640(SB)
#define T_BRANCH tanhconst<>+672(SB)
#define T_SAT tanhconst<>+704(SB)
#define T_BIAS tanhconst<>+736(SB)

// TANH_RATIONAL: Y5 = x + x*s*P(s)/Q(s) with s = x*x (x in Y0), tanh.go's
// |x| < 0.625 branch.
#define TANH_RATIONAL \
	VMULPD	Y0, Y0, Y2; \
	VMULPD	T_P0, Y2, Y3; \
	VADDPD	T_P1, Y3, Y3; \
	VMULPD	Y2, Y3, Y3; \
	VADDPD	T_P2, Y3, Y3; \
	VADDPD	T_Q0, Y2, Y4; \
	VMULPD	Y2, Y4, Y4; \
	VADDPD	T_Q1, Y4, Y4; \
	VMULPD	Y2, Y4, Y4; \
	VADDPD	T_Q2, Y4, Y4; \
	VMULPD	Y2, Y0, Y5; \
	VMULPD	Y3, Y5, Y5; \
	VDIVPD	Y4, Y5, Y5; \
	VADDPD	Y5, Y0, Y5

// TANH_EXP: Y6 = ±(1 - 2/(exp(2z)+1)) with the sign of x (x in Y0, z = |x|
// in Y1; the sign bits are left in Y10), exp evaluated as archExp's FMA
// path does it.
#define TANH_EXP \
	VADDPD	Y1, Y1, Y6; \
	VMULPD	T_LOG2E, Y6, Y7; \
	VCVTPD2DQY	Y7, X8; \
	VCVTDQ2PD	X8, Y7; \
	VFNMADD231PD	T_LN2U, Y7, Y6; \
	VFNMADD231PD	T_LN2L, Y7, Y6; \
	VMULPD	T_SIXTEENTH, Y6, Y6; \
	VMOVUPD	T_C8, Y9; \
	VFMADD213PD	T_C7, Y6, Y9; \
	VFMADD213PD	T_C6, Y6, Y9; \
	VFMADD213PD	T_C5, Y6, Y9; \
	VFMADD213PD	T_C4, Y6, Y9; \
	VFMADD213PD	T_C3, Y6, Y9; \
	VFMADD213PD	T_HALF, Y6, Y9; \
	VFMADD213PD	T_ONE, Y6, Y9; \
	VMULPD	Y9, Y6, Y6; \
	VADDPD	T_TWO, Y6, Y9; \
	VMULPD	Y9, Y6, Y6; \
	VADDPD	T_TWO, Y6, Y9; \
	VMULPD	Y9, Y6, Y6; \
	VADDPD	T_TWO, Y6, Y9; \
	VMULPD	Y9, Y6, Y6; \
	VADDPD	T_TWO, Y6, Y9; \
	VFMADD213PD	T_ONE, Y9, Y6; \
	VPADDD	T_BIAS, X8, X8; \
	VPMOVZXDQ	X8, Y7; \
	VPSLLQ	$52, Y7, Y7; \
	VMULPD	Y7, Y6, Y6; \
	VADDPD	T_ONE, Y6, Y6; \
	VMOVUPD	T_TWO, Y7; \
	VDIVPD	Y6, Y7, Y7; \
	VMOVUPD	T_ONE, Y6; \
	VSUBPD	Y7, Y6, Y6; \
	VANDPD	T_SIGN, Y0, Y10; \
	VXORPD	Y10, Y6, Y6

// TANH_SAT(r): Y5 = ±1 (sign bits in Y10) where z > 0.5*MAXLOG, else r.
#define TANH_SAT(r) \
	VCMPPD	$0x1e, T_SAT, Y1, Y11; \
	VORPD	T_ONE, Y10, Y12; \
	VBLENDVPD	Y11, Y12, r, Y5

// TANH_ZERO: Y5 = x where x == ±0, else Y5.
#define TANH_ZERO \
	VXORPD	Y13, Y13, Y13; \
	VCMPPD	$0x00, Y13, Y0, Y11; \
	VBLENDVPD	Y11, Y0, Y5, Y5

// func tanhAsm(xs []float64)
// Replaces each of the first len(xs)&^3 elements x by math.Tanh(x), four
// lanes at a time and bit for bit. Each lane evaluates Tanh's branches with
// the same operations in the same order as the scalar code: the rational
// form of tanh.go (TANH_RATIONAL), and 1 - 2/(exp(2|x|)+1) with exp
// evaluated as archExp's FMA path does it (round-to-nearest exponent,
// two-step FMA reduction, 1/16 scaling, FMA Taylor polynomial, four
// squarings, ldexp). On |x| in [0.625, 0.5*MAXLOG] archExp's argument lies
// in [1.25, 88.03], where none of its special-case exits (overflow,
// non-finite, denormal result) can fire. Tanh's case analysis becomes
// blends: exp form where |x| >= 0.625, ±1 where |x| > 0.5*MAXLOG, x itself
// where x == ±0; NaN fails every ordered compare and keeps the rational
// form, which propagates it as Tanh does. A quad whose lanes all take the
// same side of 0.625 evaluates only that side. The amd64 compiler never
// fuses Go's x*y+z into an FMA, so tanh.go's arithmetic is the plain
// multiplies and adds used here.
TEXT ·tanhAsm(SB), NOSPLIT, $0-24
	MOVQ	xs_base+0(FP), SI
	MOVQ	xs_len+8(FP), CX
	SHRQ	$2, CX
	JZ	tanh_done
tanh_loop:
	VMOVUPD	(SI), Y0
	VANDPD	T_ABS, Y0, Y1
	VCMPPD	$0x1d, T_BRANCH, Y1, Y14
	VMOVMSKPD	Y14, AX
	TESTL	AX, AX
	JZ	tanh_rational
	CMPL	AX, $15
	JEQ	tanh_exp
	TANH_RATIONAL
	TANH_EXP
	VBLENDVPD	Y14, Y6, Y5, Y5
	TANH_SAT(Y5)
	TANH_ZERO
	JMP	tanh_store
tanh_rational:
	TANH_RATIONAL
	TANH_ZERO
	JMP	tanh_store
tanh_exp:
	TANH_EXP
	TANH_SAT(Y6)
tanh_store:
	VMOVUPD	Y5, (SI)
	ADDQ	$32, SI
	DECQ	CX
	JNZ	tanh_loop
tanh_done:
	VZEROUPPER
	RET

// func tanhDerivAsm(delta, y []float64)
// delta[i] = (1 - y[i]*y[i]) * delta[i] over the first len(y)&^3 elements,
// with the Go loop's operation order and operand roles.
TEXT ·tanhDerivAsm(SB), NOSPLIT, $0-48
	MOVQ	delta_base+0(FP), DI
	MOVQ	y_base+24(FP), SI
	MOVQ	y_len+32(FP), CX
	SHRQ	$2, CX
	JZ	td_done
	VMOVUPD	T_ONE, Y8
td_loop:
	VMOVUPD	(SI), Y0
	VMULPD	Y0, Y0, Y0
	VSUBPD	Y0, Y8, Y1
	VMULPD	(DI), Y1, Y1
	VMOVUPD	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	CX
	JNZ	td_loop
td_done:
	VZEROUPPER
	RET

// func adamAsm(params, grad, m, v []float64, h *[8]float64) int
// The Adam update of nn.adamUpdate over the first len(grad)&^3 elements,
// four lanes at a time with no FMA, in the Go loop's operation order and
// operand roles: h = {b1, 1-b1, b2, 1-b2, c1, c2, lr, eps}. Returns the
// number of elements updated.
TEXT ·adamAsm(SB), NOSPLIT, $0-112
	MOVQ	params_base+0(FP), DI
	MOVQ	grad_base+24(FP), SI
	MOVQ	grad_len+32(FP), CX
	MOVQ	m_base+48(FP), R8
	MOVQ	v_base+72(FP), R9
	MOVQ	h+96(FP), AX
	ANDQ	$~3, CX
	MOVQ	CX, ret+104(FP)
	SHRQ	$2, CX
	JZ	adam_done
	VBROADCASTSD	0(AX), Y8
	VBROADCASTSD	8(AX), Y9
	VBROADCASTSD	16(AX), Y10
	VBROADCASTSD	24(AX), Y11
	VBROADCASTSD	32(AX), Y12
	VBROADCASTSD	40(AX), Y13
	VBROADCASTSD	48(AX), Y14
	VBROADCASTSD	56(AX), Y7
adam_loop:
	VMOVUPD	(SI), Y0
	// m = (1-b1)*g + m*b1
	VMOVUPD	(R8), Y1
	VMULPD	Y8, Y1, Y1
	VMULPD	Y0, Y9, Y2
	VADDPD	Y1, Y2, Y1
	VMOVUPD	Y1, (R8)
	// v = g*((1-b2)*g) + v*b2
	VMOVUPD	(R9), Y3
	VMULPD	Y10, Y3, Y3
	VMULPD	Y0, Y11, Y4
	VMULPD	Y4, Y0, Y4
	VADDPD	Y3, Y4, Y3
	VMOVUPD	Y3, (R9)
	// p -= (m/c1)*lr / (sqrt(v/c2) + eps)
	VDIVPD	Y12, Y1, Y1
	VDIVPD	Y13, Y3, Y3
	VMULPD	Y14, Y1, Y1
	VSQRTPD	Y3, Y3
	VADDPD	Y7, Y3, Y3
	VDIVPD	Y3, Y1, Y1
	VMOVUPD	(DI), Y5
	VSUBPD	Y1, Y5, Y5
	VMOVUPD	Y5, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$32, R8
	ADDQ	$32, R9
	DECQ	CX
	JNZ	adam_loop
adam_done:
	VZEROUPPER
	RET
