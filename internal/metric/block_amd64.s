#include "textflag.h"

// The AVX float32 squared-L2 sweeps (lane structure: block.go).
//
// A YMM accumulator holds two candidates, one per 128-bit half; lane l
// of each half is lane s_l of SquaredL2Float32 for its candidate. Per
// four elements: q[i:i+4] is broadcast to both halves once, then per
// register d = q - c (VSUBPS), d*d (VMULPS), acc + d*d (VADDPS) — the
// per-pair kernel's operations in its operand order, never fused. After
// the four-wide loop each upper half is extracted to its own XMM
// register and VZEROUPPER runs before the SSE tail and reduction, so
// no function returns with dirty upper state. R14 and R15 are not
// touched.

// PAIR4 folds (q[i:i+4] - a[i:i+4])² into acc's low half and
// (q[i:i+4] - b[i:i+4])² into its high half; q[i:i+4] is in both halves
// of Y8.
#define PAIR4(a, b, acc) \
	VMOVUPS     (a)(AX*4), X9; \
	VINSERTF128 $1, (b)(AX*4), Y9, Y9; \
	VSUBPS      Y9, Y8, Y9; \
	VMULPS      Y9, Y9, Y9; \
	VADDPS      Y9, acc, acc

// STEP1 folds (q[i] - c[i])², q[i] in X8, into acc's lane 0.
#define STEP1(c, acc) \
	MOVSS  (c)(AX*4), X9; \
	MOVAPS X8, X10; \
	SUBSS  X9, X10; \
	MULSS  X10, X10; \
	ADDSS  X10, acc

// REDUCE leaves (s0+s1)+(s2+s3) of acc in its lane 0, via X9:
// X9 = [s1 s0 s3 s2]; acc = [s0+s1 . s2+s3 .]; X9[0] = s2+s3;
// acc[0] = (s0+s1)+(s2+s3).
#define REDUCE(acc) \
	MOVAPS  acc, X9; \
	SHUFPS  $0xB1, X9, X9; \
	ADDPS   X9, acc; \
	MOVHLPS acc, X9; \
	ADDSS   X9, acc

// func cpuHasAVX() bool
//
// AVX is usable when the CPU has it (CPUID.1:ECX bit 28), the OS uses
// XSAVE (bit 27), and the OS saves XMM and YMM state (XCR0 bits 1, 2).
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func squaredL2x8AVX(q []float32, c *[8][]float32, out *[8]float32)
//
// Y0..Y3 hold candidates (0,1), (2,3), (4,5), (6,7).
TEXT ·squaredL2x8AVX(SB), NOSPLIT, $0-40
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   c+24(FP), AX
	MOVQ   0(AX), R8
	MOVQ   24(AX), R9
	MOVQ   48(AX), R10
	MOVQ   72(AX), R11
	MOVQ   96(AX), R12
	MOVQ   120(AX), R13
	MOVQ   144(AX), BX
	MOVQ   168(AX), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     split8

loop8:
	VBROADCASTF128 (SI)(AX*4), Y8
	PAIR4(R8, R9, Y0)
	PAIR4(R10, R11, Y1)
	PAIR4(R12, R13, Y2)
	PAIR4(BX, DI, Y3)
	ADDQ           $4, AX
	CMPQ           AX, DX
	JLT            loop8

split8:
	// Candidates 1, 3, 5, 7 move to X4..X7.
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VZEROUPPER
	CMPQ         AX, CX
	JGE          reduce8

tail8:
	MOVSS (SI)(AX*4), X8
	STEP1(R8, X0)
	STEP1(R9, X4)
	STEP1(R10, X1)
	STEP1(R11, X5)
	STEP1(R12, X2)
	STEP1(R13, X6)
	STEP1(BX, X3)
	STEP1(DI, X7)
	INCQ  AX
	CMPQ  AX, CX
	JLT   tail8

reduce8:
	REDUCE(X0)
	REDUCE(X4)
	REDUCE(X1)
	REDUCE(X5)
	REDUCE(X2)
	REDUCE(X6)
	REDUCE(X3)
	REDUCE(X7)
	MOVQ  out+32(FP), AX
	MOVSS X0, 0(AX)
	MOVSS X4, 4(AX)
	MOVSS X1, 8(AX)
	MOVSS X5, 12(AX)
	MOVSS X2, 16(AX)
	MOVSS X6, 20(AX)
	MOVSS X3, 24(AX)
	MOVSS X7, 28(AX)
	RET

// func squaredL2x4AVX(q, c0, c1, c2, c3 []float32) (d0, d1, d2, d3 float32)
//
// Y0 holds candidates (0,1), Y1 candidates (2,3).
TEXT ·squaredL2x4AVX(SB), NOSPLIT, $0-136
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   c0_base+24(FP), R8
	MOVQ   c1_base+48(FP), R9
	MOVQ   c2_base+72(FP), R10
	MOVQ   c3_base+96(FP), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     split4

loop4:
	VBROADCASTF128 (SI)(AX*4), Y8
	PAIR4(R8, R9, Y0)
	PAIR4(R10, R11, Y1)
	ADDQ           $4, AX
	CMPQ           AX, DX
	JLT            loop4

split4:
	// Candidates 1 and 3 move to X4 and X5.
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VZEROUPPER
	CMPQ         AX, CX
	JGE          reduce4

tail4:
	MOVSS (SI)(AX*4), X8
	STEP1(R8, X0)
	STEP1(R9, X4)
	STEP1(R10, X1)
	STEP1(R11, X5)
	INCQ  AX
	CMPQ  AX, CX
	JLT   tail4

reduce4:
	REDUCE(X0)
	REDUCE(X4)
	REDUCE(X1)
	REDUCE(X5)
	MOVSS X0, d0+120(FP)
	MOVSS X4, d1+124(FP)
	MOVSS X1, d2+128(FP)
	MOVSS X5, d3+132(FP)
	RET

// func squaredL2x1AVX(q, c []float32) float32
//
// One candidate, one XMM accumulator: X0's lanes are s0..s3.
TEXT ·squaredL2x1AVX(SB), NOSPLIT, $0-52
	MOVQ   q_base+0(FP), SI
	MOVQ   q_len+8(FP), CX
	MOVQ   c_base+24(FP), R8
	VXORPS X0, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     tail1

loop1:
	VMOVUPS (SI)(AX*4), X8
	VSUBPS  (R8)(AX*4), X8, X9
	VMULPS  X9, X9, X9
	VADDPS  X9, X0, X0
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     loop1

tail1:
	VZEROUPPER
	CMPQ AX, CX
	JGE  reduce1

step1:
	MOVSS (SI)(AX*4), X8
	STEP1(R8, X0)
	INCQ  AX
	CMPQ  AX, CX
	JLT   step1

reduce1:
	REDUCE(X0)
	MOVSS X0, ret+48(FP)
	RET
