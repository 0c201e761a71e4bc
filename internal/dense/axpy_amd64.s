#include "textflag.h"

// Vector bodies of Axpy, Axpy2 and productRow. Multiply and add are
// separate instructions (no FMA), so each lane rounds twice, exactly
// like the Go loops; c is always the first addend.

// Axpy and Axpy2 take eight elements per iteration, then one
// four-element step, then a scalar tail.

// func axpyAsm(c []float64, a float64, b []float64)
TEXT ·axpyAsm(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ         b_base+32(FP), SI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JMP          check8

loop8:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX

check8:
	CMPQ AX, DX
	JLT  loop8
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ AX, CX
	JGE  done
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X3
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy2Asm(c []float64, a0 float64, b0 []float64, a1 float64, b1 []float64)
TEXT ·axpy2Asm(SB), NOSPLIT, $0-88
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	MOVQ         b0_base+32(FP), SI
	VBROADCASTSD a1+56(FP), Y5
	MOVQ         b1_base+64(FP), BX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JMP          check8

loop8:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMULPD  (BX)(AX*8), Y5, Y1
	VMULPD  32(BX)(AX*8), Y5, Y2
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX

check8:
	CMPQ AX, DX
	JLT  loop8
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y3
	VADDPD  Y1, Y3, Y3
	VMULPD  (BX)(AX*8), Y5, Y1
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ AX, CX
	JGE  done
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X3
	VADDSD X1, X3, X3
	VMULSD (BX)(AX*8), X5, X1
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// Body of productRow: one output row, walked in strips of 32 columns.
// A strip's accumulators live in Y0..Y7 for the whole chain over t; the
// last group of a strip (Y7) is the only one that can hold fewer than
// four columns, so its loads and stores are masked by Y14. Per step t,
// Y15 is a[t·lda] broadcast and BX the row the strip reads: b's row t,
// or zeroRow when the step is skipped, chosen by a conditional move.
//
// Registers: DI the strip of c, CX the columns left, SI walks a, R8 and
// R10 are lda and ldb in bytes, R9 walks b, R11 counts steps, R12 is
// zeroRow, R13 is 1 when no step is skipped.

// SELECT loads step t: BX = zeroRow when a[t·lda] is ±0 and steps may
// be skipped (a shift out of the sign bit leaves zero), else b's row.
#define SELECT \
	MOVQ         (SI), DX; \
	SHLQ         $1, DX; \
	ORQ          R13, DX; \
	MOVQ         R9, BX; \
	CMOVQEQ      R12, BX; \
	VBROADCASTSD (SI), Y15

// MADD adds one step's products into a full group: multiply, then add
// with the accumulator as the first addend.
#define MADD(off, acc) \
	VMULPD off(BX), Y15, Y8; \
	VADDPD Y8, acc, acc

// MADDTAIL does the same for the strip's last group, through the mask.
#define MADDTAIL(off) \
	VMASKMOVPD off(BX), Y14, Y8; \
	VMULPD     Y8, Y15, Y8; \
	VADDPD     Y8, Y7, Y7

#define ADVANCE \
	ADDQ R8, SI; \
	ADDQ R10, R9; \
	DECQ R11

// tailmask<>+8·(4-r) is the mask of a group holding r columns.
DATA  tailmask<>+0(SB)/8, $-1
DATA  tailmask<>+8(SB)/8, $-1
DATA  tailmask<>+16(SB)/8, $-1
DATA  tailmask<>+24(SB)/8, $-1
DATA  tailmask<>+32(SB)/8, $0
DATA  tailmask<>+40(SB)/8, $0
DATA  tailmask<>+48(SB)/8, $0
DATA  tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func productRowAsm(c []float64, a []float64, lda int, b []float64, ldb int, k int, cont bool, skip bool)
TEXT ·productRowAsm(SB), NOSPLIT, $0-98
	MOVQ    c_base+0(FP), DI
	MOVQ    c_len+8(FP), CX
	MOVQ    lda+48(FP), R8
	SHLQ    $3, R8
	MOVQ    ldb+80(FP), R10
	SHLQ    $3, R10
	LEAQ    ·zeroRow(SB), R12
	MOVBQZX skip+97(FP), R13
	XORQ    $1, R13

strip:
	// SI, R9 and R11 restart for each strip: a's first term, b's row 0
	// at the strip's columns, k steps.
	MOVQ a_base+24(FP), SI
	MOVQ DI, R9
	SUBQ c_base+0(FP), R9
	ADDQ b_base+56(FP), R9
	MOVQ k+88(FP), R11

	// The strip is w = min(CX, 32) columns in g = ceil(w/4) groups, the
	// last holding 4 - (4g-w) of them.
	MOVQ    CX, DX
	CMPQ    DX, $32
	JLE     sized
	MOVQ    $32, DX

sized:
	LEAQ    3(DX), AX
	SHRQ    $2, AX
	NEGQ    DX
	LEAQ    (DX)(AX*4), DX
	LEAQ    tailmask<>(SB), BX
	VMOVDQU (BX)(DX*8), Y14
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	CMPQ    AX, $8
	JEQ     g8
	CMPQ    AX, $7
	JEQ     g7
	CMPQ    AX, $6
	JEQ     g6
	CMPQ    AX, $5
	JEQ     g5
	CMPQ    AX, $4
	JEQ     g4
	CMPQ    AX, $3
	JEQ     g3
	CMPQ    AX, $2
	JEQ     g2

	// One copy per group count g: in continuation mode the accumulators
	// start from c, the chain runs, and the strip is stored.
g1:
	CMPB       cont+96(FP), $0
	JEQ        g1loop
	VMASKMOVPD (DI), Y14, Y7

g1loop:
	SELECT
	MADDTAIL(0)
	ADVANCE
	JNZ        g1loop
	VMASKMOVPD Y7, Y14, (DI)
	JMP        next

g2:
	CMPB       cont+96(FP), $0
	JEQ        g2loop
	VMOVUPD    (DI), Y0
	VMASKMOVPD 32(DI), Y14, Y7

g2loop:
	SELECT
	MADD(0, Y0)
	MADDTAIL(32)
	ADVANCE
	JNZ        g2loop
	VMOVUPD    Y0, (DI)
	VMASKMOVPD Y7, Y14, 32(DI)
	JMP        next

g3:
	CMPB       cont+96(FP), $0
	JEQ        g3loop
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMASKMOVPD 64(DI), Y14, Y7

g3loop:
	SELECT
	MADD(0, Y0)
	MADD(32, Y1)
	MADDTAIL(64)
	ADVANCE
	JNZ        g3loop
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMASKMOVPD Y7, Y14, 64(DI)
	JMP        next

g4:
	CMPB       cont+96(FP), $0
	JEQ        g4loop
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMASKMOVPD 96(DI), Y14, Y7

g4loop:
	SELECT
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADDTAIL(96)
	ADVANCE
	JNZ        g4loop
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMASKMOVPD Y7, Y14, 96(DI)
	JMP        next

g5:
	CMPB       cont+96(FP), $0
	JEQ        g5loop
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMOVUPD    96(DI), Y3
	VMASKMOVPD 128(DI), Y14, Y7

g5loop:
	SELECT
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADD(96, Y3)
	MADDTAIL(128)
	ADVANCE
	JNZ        g5loop
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VMASKMOVPD Y7, Y14, 128(DI)
	JMP        next

g6:
	CMPB       cont+96(FP), $0
	JEQ        g6loop
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMOVUPD    96(DI), Y3
	VMOVUPD    128(DI), Y4
	VMASKMOVPD 160(DI), Y14, Y7

g6loop:
	SELECT
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADD(96, Y3)
	MADD(128, Y4)
	MADDTAIL(160)
	ADVANCE
	JNZ        g6loop
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VMOVUPD    Y4, 128(DI)
	VMASKMOVPD Y7, Y14, 160(DI)
	JMP        next

g7:
	CMPB       cont+96(FP), $0
	JEQ        g7loop
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMOVUPD    96(DI), Y3
	VMOVUPD    128(DI), Y4
	VMOVUPD    160(DI), Y5
	VMASKMOVPD 192(DI), Y14, Y7

g7loop:
	SELECT
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADD(96, Y3)
	MADD(128, Y4)
	MADD(160, Y5)
	MADDTAIL(192)
	ADVANCE
	JNZ        g7loop
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VMOVUPD    Y4, 128(DI)
	VMOVUPD    Y5, 160(DI)
	VMASKMOVPD Y7, Y14, 192(DI)
	JMP        next

g8:
	CMPB       cont+96(FP), $0
	JEQ        g8loop
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMOVUPD    96(DI), Y3
	VMOVUPD    128(DI), Y4
	VMOVUPD    160(DI), Y5
	VMOVUPD    192(DI), Y6
	VMASKMOVPD 224(DI), Y14, Y7

g8loop:
	SELECT
	MADD(0, Y0)
	MADD(32, Y1)
	MADD(64, Y2)
	MADD(96, Y3)
	MADD(128, Y4)
	MADD(160, Y5)
	MADD(192, Y6)
	MADDTAIL(224)
	ADVANCE
	JNZ        g8loop
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VMOVUPD    Y4, 128(DI)
	VMOVUPD    Y5, 160(DI)
	VMOVUPD    Y6, 192(DI)
	VMASKMOVPD Y7, Y14, 224(DI)

next:
	ADDQ $256, DI
	SUBQ $32, CX
	JG   strip
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
