#include "textflag.h"

// Vector bodies of Axpy and Axpy2. Multiply and add are separate
// instructions (no FMA), so each lane rounds twice, exactly like the Go
// loop; c is always the first addend. Eight elements per iteration,
// then one four-element step, then a scalar tail.

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
