#include "textflag.h"

// func squaredL2x4(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32)
//
// X0..X3 accumulate candidates 0..3; lane l of each holds lane s_l of
// SquaredL2Float32. Per four elements: load q once, then per candidate
// d = q - c (SUBPS), d*d (MULPS), acc + d*d (ADDPS) — the per-pair
// kernel's operations in its operand order. SSE2 only: every GOAMD64
// level has it.

// REDUCE leaves (s0+s1)+(s2+s3) of acc in its lane 0, via tmp:
// tmp = [s1 s0 s3 s2]; acc = [s0+s1 . s2+s3 .]; tmp[0] = s2+s3;
// acc[0] = (s0+s1)+(s2+s3).
#define REDUCE(acc, tmp) \
	MOVAPS  acc, tmp; \
	SHUFPS  $0xB1, tmp, tmp; \
	ADDPS   tmp, acc; \
	MOVHLPS acc, tmp; \
	ADDSS   tmp, acc

// STEP4 folds (q[i:i+4] - c[i:i+4])², q[i:i+4] in X4, into acc's lanes.
#define STEP4(c, acc) \
	MOVUPS (c)(AX*4), X5; \
	MOVAPS X4, X6; \
	SUBPS  X5, X6; \
	MULPS  X6, X6; \
	ADDPS  X6, acc

// STEP1 folds (q[i] - c[i])², q[i] in X4, into acc's lane 0.
#define STEP1(c, acc) \
	MOVSS  (c)(AX*4), X5; \
	MOVAPS X4, X6; \
	SUBSS  X5, X6; \
	MULSS  X6, X6; \
	ADDSS  X6, acc

TEXT ·squaredL2x4(SB), NOSPLIT, $0-136
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ c0_base+24(FP), R8
	MOVQ c1_base+48(FP), R9
	MOVQ c2_base+72(FP), R10
	MOVQ c3_base+96(FP), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-4, DX
	JZ    tail

loop4:
	MOVUPS (SI)(AX*4), X4
	STEP4(R8, X0)
	STEP4(R9, X1)
	STEP4(R10, X2)
	STEP4(R11, X3)
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  loop4

tail:
	CMPQ AX, CX
	JGE  reduce

loop1:
	MOVSS (SI)(AX*4), X4
	STEP1(R8, X0)
	STEP1(R9, X1)
	STEP1(R10, X2)
	STEP1(R11, X3)
	INCQ AX
	CMPQ AX, CX
	JLT  loop1

reduce:
	REDUCE(X0, X4)
	REDUCE(X1, X5)
	REDUCE(X2, X6)
	REDUCE(X3, X7)
	MOVSS X0, d0+120(FP)
	MOVSS X1, d1+124(FP)
	MOVSS X2, d2+128(FP)
	MOVSS X3, d3+132(FP)
	RET
