#include "textflag.h"

// SSE2 kernels of the batched update; kernels_amd64.go declares them and
// says why they are bit-identical to the generic kernels (kernels.go).
// Only SSE2 is used (no SSE3 MOVDDUP, no FMA, no AVX): a broadcast is
// MOVSD then UNPCKLPD, and every memory operand goes through MOVUPD or
// MOVSD, because Go slices are only 8-byte aligned. X15 is left alone.

// func forwardHiddenSSE2(wt, b, in, pre, act []float64, nin, nout, batch int)
//
// R8 wt, R9 b, SI the sample's input row, DI its pre row, R10 its act row,
// R11 nin, R12 nout·8 (a wt row in bytes), R13 samples left, BX the unit
// offset in bytes, AX walks the input row, DX walks a wt column, CX counts
// inputs, X14 = 0.

// FWD_MAC adds w·x to one pair of unit sums: acc += wt[i][j..j+1]·x.
#define FWD_MAC(off, acc, tmp) \
	MOVUPD off(DX), tmp; \
	MULPD  X8, tmp; \
	ADDPD  tmp, acc

// FWD_OUT stores one pair of sums to pre and its ReLU to act: the mask is
// 0 < v, false for −0 and NaN, exactly relu's predicate.
#define FWD_OUT(off, acc) \
	MOVUPD acc, off(DI)(BX*1); \
	MOVAPD X14, X9; \
	CMPPD  acc, X9, $1; \
	ANDPD  acc, X9; \
	MOVUPD X9, off(R10)(BX*1)

TEXT ·forwardHiddenSSE2(SB), NOSPLIT, $0-144
	MOVQ wt_base+0(FP), R8
	MOVQ b_base+24(FP), R9
	MOVQ in_base+48(FP), SI
	MOVQ pre_base+72(FP), DI
	MOVQ act_base+96(FP), R10
	MOVQ nin+120(FP), R11
	MOVQ nout+128(FP), R12
	MOVQ batch+136(FP), R13
	SHLQ $3, R12
	XORPD X14, X14
	TESTQ R13, R13
	JZ   fwd_done

fwd_sample:
	XORQ BX, BX

fwd_block:
	// Sixteen units: eight pair accumulators started at their biases.
	LEAQ 128(BX), AX
	CMPQ AX, R12
	JGT  fwd_pair
	MOVUPD 0(R9)(BX*1), X0
	MOVUPD 16(R9)(BX*1), X1
	MOVUPD 32(R9)(BX*1), X2
	MOVUPD 48(R9)(BX*1), X3
	MOVUPD 64(R9)(BX*1), X4
	MOVUPD 80(R9)(BX*1), X5
	MOVUPD 96(R9)(BX*1), X6
	MOVUPD 112(R9)(BX*1), X7
	LEAQ (R8)(BX*1), DX
	MOVQ SI, AX
	MOVQ R11, CX

	PCALIGN $32

fwd_block_i:
	MOVSD    (AX), X8
	UNPCKLPD X8, X8
	FWD_MAC(0, X0, X9)
	FWD_MAC(16, X1, X10)
	FWD_MAC(32, X2, X11)
	FWD_MAC(48, X3, X12)
	FWD_MAC(64, X4, X9)
	FWD_MAC(80, X5, X10)
	FWD_MAC(96, X6, X11)
	FWD_MAC(112, X7, X12)
	ADDQ $8, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  fwd_block_i
	FWD_OUT(0, X0)
	FWD_OUT(16, X1)
	FWD_OUT(32, X2)
	FWD_OUT(48, X3)
	FWD_OUT(64, X4)
	FWD_OUT(80, X5)
	FWD_OUT(96, X6)
	FWD_OUT(112, X7)
	ADDQ $128, BX
	JMP  fwd_block

fwd_pair:
	LEAQ 16(BX), AX
	CMPQ AX, R12
	JGT  fwd_single
	MOVUPD (R9)(BX*1), X0
	LEAQ (R8)(BX*1), DX
	MOVQ SI, AX
	MOVQ R11, CX

fwd_pair_i:
	MOVSD    (AX), X8
	UNPCKLPD X8, X8
	FWD_MAC(0, X0, X9)
	ADDQ $8, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  fwd_pair_i
	FWD_OUT(0, X0)
	ADDQ $16, BX
	JMP  fwd_pair

fwd_single:
	// An odd last unit, in the low lane.
	CMPQ BX, R12
	JGE  fwd_next
	MOVSD (R9)(BX*1), X0
	LEAQ (R8)(BX*1), DX
	MOVQ SI, AX
	MOVQ R11, CX

fwd_single_i:
	MOVSD (AX), X8
	MOVSD (DX), X9
	MULSD X8, X9
	ADDSD X9, X0
	ADDQ  $8, AX
	ADDQ  R12, DX
	DECQ  CX
	JNZ   fwd_single_i
	MOVSD  X0, (DI)(BX*1)
	MOVAPD X14, X9
	CMPPD  X0, X9, $1
	ANDPD  X0, X9
	MOVSD  X9, (R10)(BX*1)

fwd_next:
	LEAQ (SI)(R11*8), SI
	ADDQ R12, DI
	ADDQ R12, R10
	DECQ R13
	JNZ  fwd_sample

fwd_done:
	RET

// func seedDeltaSSE2(w, gs []float64, actions []int, pre, delta []float64, nin, batch int)
//
// R8 w, R9 walks gs, R10 walks actions, SI the sample's pre row, DI its
// delta row, DX its action's weight row, R12 nin·8, R13 samples left, BX
// the input offset in bytes, X0 = gs[s] in both lanes, X14 = 0.
TEXT ·seedDeltaSSE2(SB), NOSPLIT, $0-136
	MOVQ w_base+0(FP), R8
	MOVQ gs_base+24(FP), R9
	MOVQ actions_base+48(FP), R10
	MOVQ pre_base+72(FP), SI
	MOVQ delta_base+96(FP), DI
	MOVQ nin+120(FP), R12
	MOVQ batch+128(FP), R13
	SHLQ $3, R12
	XORPD X14, X14
	TESTQ R13, R13
	JZ   seed_done

seed_sample:
	MOVSD    (R9), X0
	UNPCKLPD X0, X0
	MOVQ  (R10), DX
	IMULQ R12, DX
	ADDQ  R8, DX
	XORQ  BX, BX

	PCALIGN $32

seed_quad:
	// delta = g·w with the lanes whose pre ≤ 0 (false for NaN) cleared to
	// +0, four inputs at a time.
	LEAQ 32(BX), AX
	CMPQ AX, R12
	JGT  seed_pair
	MOVUPD (DX)(BX*1), X1
	MULPD  X0, X1
	MOVUPD 16(DX)(BX*1), X3
	MULPD  X0, X3
	MOVUPD (SI)(BX*1), X2
	CMPPD  X14, X2, $2
	ANDNPD X1, X2
	MOVUPD X2, (DI)(BX*1)
	MOVUPD 16(SI)(BX*1), X4
	CMPPD  X14, X4, $2
	ANDNPD X3, X4
	MOVUPD X4, 16(DI)(BX*1)
	MOVQ   AX, BX
	JMP    seed_quad

seed_pair:
	LEAQ 16(BX), AX
	CMPQ AX, R12
	JGT  seed_single
	MOVUPD (DX)(BX*1), X1
	MULPD  X0, X1
	MOVUPD (SI)(BX*1), X2
	CMPPD  X14, X2, $2
	ANDNPD X1, X2
	MOVUPD X2, (DI)(BX*1)
	MOVQ   AX, BX

seed_single:
	CMPQ BX, R12
	JGE  seed_next
	MOVSD  (DX)(BX*1), X1
	MULSD  X0, X1
	MOVSD  (SI)(BX*1), X2
	CMPPD  X14, X2, $2
	ANDNPD X1, X2
	MOVSD  X2, (DI)(BX*1)

seed_next:
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ R12, SI
	ADDQ R12, DI
	DECQ R13
	JNZ  seed_sample

seed_done:
	RET

// func gradHiddenSSE2(delta, in, gwt, gb []float64, nin, nout, batch int)
//
// R8 gwt, R9 gb, SI the sample's input row, DI its delta row, R11 nin,
// R12 nout·8 (a gwt row in bytes), R13 samples left, BX the unit offset in
// bytes, AX walks the input row, DX walks a gwt column, CX counts inputs,
// X11 = 0, X12 = −0 in both lanes. A pair of units carries two masks:
// K = (d ≠ 0), all ones where the unit contributes (NaN included, as
// zeroGrad has it), and Z = −0 exactly where it does not. A contribution
// t becomes (t AND K) OR Z: itself where the unit is live, −0 where it is
// dead.

// GRAD_MASKS builds K and Z for one pair of units and adds the pair's
// selected deltas into gb.
#define GRAD_MASKS(off, K, Z) \
	MOVUPD off(DI)(BX*1), X9; \
	MOVAPD X9, K; \
	CMPPD  X11, K, $4; \
	MOVAPD K, Z; \
	ANDNPD X12, Z; \
	ANDPD  K, X9; \
	ORPD   Z, X9; \
	MOVUPD off(R9)(BX*1), X10; \
	ADDPD  X9, X10; \
	MOVUPD X10, off(R9)(BX*1)

// GRAD_ACC adds the pair's selected products d·x into its gwt cells.
#define GRAD_ACC(off, K, Z) \
	MOVUPD off(DI)(BX*1), X9; \
	MULPD  X8, X9; \
	ANDPD  K, X9; \
	ORPD   Z, X9; \
	MOVUPD off(DX), X10; \
	ADDPD  X9, X10; \
	MOVUPD X10, off(DX)

TEXT ·gradHiddenSSE2(SB), NOSPLIT, $0-120
	MOVQ delta_base+0(FP), DI
	MOVQ in_base+24(FP), SI
	MOVQ gwt_base+48(FP), R8
	MOVQ gb_base+72(FP), R9
	MOVQ nin+96(FP), R11
	MOVQ nout+104(FP), R12
	MOVQ batch+112(FP), R13
	SHLQ $3, R12
	XORPD   X11, X11
	PCMPEQL X12, X12
	PSLLQ   $63, X12
	TESTQ R13, R13
	JZ   grad_done

grad_sample:
	XORQ BX, BX

grad_block:
	// Eight units: four pairs of masks held in X0–X7.
	LEAQ 64(BX), AX
	CMPQ AX, R12
	JGT  grad_pair
	GRAD_MASKS(0, X0, X1)
	GRAD_MASKS(16, X2, X3)
	GRAD_MASKS(32, X4, X5)
	GRAD_MASKS(48, X6, X7)
	LEAQ (R8)(BX*1), DX
	MOVQ SI, AX
	MOVQ R11, CX

	PCALIGN $32

grad_block_i:
	MOVSD    (AX), X8
	UNPCKLPD X8, X8
	GRAD_ACC(0, X0, X1)
	GRAD_ACC(16, X2, X3)
	GRAD_ACC(32, X4, X5)
	GRAD_ACC(48, X6, X7)
	ADDQ $8, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  grad_block_i
	ADDQ $64, BX
	JMP  grad_block

grad_pair:
	LEAQ 16(BX), AX
	CMPQ AX, R12
	JGT  grad_single
	GRAD_MASKS(0, X0, X1)
	LEAQ (R8)(BX*1), DX
	MOVQ SI, AX
	MOVQ R11, CX

grad_pair_i:
	MOVSD    (AX), X8
	UNPCKLPD X8, X8
	GRAD_ACC(0, X0, X1)
	ADDQ $8, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  grad_pair_i
	ADDQ $16, BX
	JMP  grad_pair

grad_single:
	// An odd last unit, in the low lane.
	CMPQ BX, R12
	JGE  grad_next
	MOVSD  (DI)(BX*1), X9
	MOVAPD X9, X0
	CMPPD  X11, X0, $4
	MOVAPD X0, X1
	ANDNPD X12, X1
	ANDPD  X0, X9
	ORPD   X1, X9
	MOVSD  (R9)(BX*1), X10
	ADDSD  X9, X10
	MOVSD  X10, (R9)(BX*1)
	LEAQ (R8)(BX*1), DX
	MOVQ SI, AX
	MOVQ R11, CX

grad_single_i:
	MOVSD (AX), X8
	MOVSD (DI)(BX*1), X9
	MULSD X8, X9
	ANDPD X0, X9
	ORPD  X1, X9
	MOVSD (DX), X10
	ADDSD X9, X10
	MOVSD X10, (DX)
	ADDQ  $8, AX
	ADDQ  R12, DX
	DECQ  CX
	JNZ   grad_single_i

grad_next:
	LEAQ (SI)(R11*8), SI
	ADDQ R12, DI
	DECQ R13
	JNZ  grad_sample

grad_done:
	RET
