//go:build amd64 && !purego

#include "textflag.h"

// func kernelAVX2(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int)
//
// The 4×8 micro-kernel: eight YMM accumulators (rows 0..3 × column halves)
// take kc rank-1 updates acc[i][:] += a(i,k)·b(k,:) with a(i,k) at
// a[i*ars+k*aks] and b(k,0..7) at b[k*bks..], then the tile is written as
// C = alpha·acc (beta == ±0, C never read) or C = alpha·acc + beta·C.
TEXT ·kernelAVX2(SB), NOSPLIT, $0-128
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ ars+32(FP), R8
	MOVQ aks+40(FP), R9
	MOVQ b_base+48(FP), DI
	MOVQ bks+72(FP), R10
	MOVQ c_base+96(FP), DX
	MOVQ cs+120(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11

	// Row pointers of the A strip; BX is the running k offset.
	LEAQ (SI)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), AX
	XORQ BX, BX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JLE   scale

loop:
	VMOVUPD      (DI), Y8
	VMOVUPD      32(DI), Y9
	VBROADCASTSD (SI)(BX*1), Y10
	VBROADCASTSD (R12)(BX*1), Y11
	VBROADCASTSD (R13)(BX*1), Y12
	VBROADCASTSD (AX)(BX*1), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         R9, BX
	ADDQ         R10, DI
	DECQ         CX
	JNZ          loop

scale:
	VBROADCASTSD alpha+80(FP), Y8
	VMULPD       Y8, Y0, Y0
	VMULPD       Y8, Y1, Y1
	VMULPD       Y8, Y2, Y2
	VMULPD       Y8, Y3, Y3
	VMULPD       Y8, Y4, Y4
	VMULPD       Y8, Y5, Y5
	VMULPD       Y8, Y6, Y6
	VMULPD       Y8, Y7, Y7

	// Row pointers of the C tile.
	LEAQ (DX)(R11*1), R12
	LEAQ (R12)(R11*1), R13
	LEAQ (R13)(R11*1), AX

	// beta == ±0: store without reading C.
	MOVQ beta+88(FP), BX
	SHLQ $1, BX
	JZ   store

	VBROADCASTSD beta+88(FP), Y9
	VFMADD231PD  (DX), Y9, Y0
	VFMADD231PD  32(DX), Y9, Y1
	VFMADD231PD  (R12), Y9, Y2
	VFMADD231PD  32(R12), Y9, Y3
	VFMADD231PD  (R13), Y9, Y4
	VFMADD231PD  32(R13), Y9, Y5
	VFMADD231PD  (AX), Y9, Y6
	VFMADD231PD  32(AX), Y9, Y7

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, 32(R12)
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	VZEROUPPER
	RET

// func kernelAVX512(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int)
//
// The 16×8 micro-kernel, the same contract on four times the rows: one
// ZMM accumulator per tile row. Each k loads the 8-wide row b(k,:) once
// and folds every a(i,k) in as an embedded broadcast, so every element
// sees the same k-ordered FMA chain and the same alpha/beta epilogue as
// in kernelAVX2. Rows r and r+8 share an address pattern: a row pointer
// (SI for rows 0..7, AX for rows 8..15) plus 0..7 row strides, spelled
// with R8 = stride, R11 = 3·stride, R12 = 5·stride, R13 = 7·stride and
// the ×2/×4 index scales. When ars is 1 (a transposed or packed A strip)
// the second loop reaches all sixteen rows by displacement instead: an
// indexed memory operand costs an FMA an extra issue slot, a displaced
// one does not. Only AVX512F instructions are used.
TEXT ·kernelAVX512(SB), NOSPLIT, $0-128
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ ars+32(FP), R8
	MOVQ aks+40(FP), R9
	MOVQ b_base+48(FP), DI
	MOVQ bks+72(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11
	LEAQ (R8)(R8*4), R12
	LEAQ (R11)(R8*4), R13
	LEAQ (SI)(R8*8), AX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

	TESTQ CX, CX
	JLE   scale
	CMPQ  R8, $8
	JEQ   unit // a(·,k) is 16 adjacent doubles: no index register

loop:
	VMOVUPD (DI), Z16
	VFMADD231PD.BCST (SI), Z16, Z0
	VFMADD231PD.BCST (SI)(R8*1), Z16, Z1
	VFMADD231PD.BCST (SI)(R8*2), Z16, Z2
	VFMADD231PD.BCST (SI)(R11*1), Z16, Z3
	VFMADD231PD.BCST (SI)(R8*4), Z16, Z4
	VFMADD231PD.BCST (SI)(R12*1), Z16, Z5
	VFMADD231PD.BCST (SI)(R11*2), Z16, Z6
	VFMADD231PD.BCST (SI)(R13*1), Z16, Z7
	VFMADD231PD.BCST (AX), Z16, Z8
	VFMADD231PD.BCST (AX)(R8*1), Z16, Z9
	VFMADD231PD.BCST (AX)(R8*2), Z16, Z10
	VFMADD231PD.BCST (AX)(R11*1), Z16, Z11
	VFMADD231PD.BCST (AX)(R8*4), Z16, Z12
	VFMADD231PD.BCST (AX)(R12*1), Z16, Z13
	VFMADD231PD.BCST (AX)(R11*2), Z16, Z14
	VFMADD231PD.BCST (AX)(R13*1), Z16, Z15
	ADDQ R9, SI
	ADDQ R9, AX
	ADDQ R10, DI
	DECQ CX
	JNZ  loop
	JMP  scale

unit:
	VMOVUPD (DI), Z16
	VFMADD231PD.BCST 0(SI), Z16, Z0
	VFMADD231PD.BCST 8(SI), Z16, Z1
	VFMADD231PD.BCST 16(SI), Z16, Z2
	VFMADD231PD.BCST 24(SI), Z16, Z3
	VFMADD231PD.BCST 32(SI), Z16, Z4
	VFMADD231PD.BCST 40(SI), Z16, Z5
	VFMADD231PD.BCST 48(SI), Z16, Z6
	VFMADD231PD.BCST 56(SI), Z16, Z7
	VFMADD231PD.BCST 64(SI), Z16, Z8
	VFMADD231PD.BCST 72(SI), Z16, Z9
	VFMADD231PD.BCST 80(SI), Z16, Z10
	VFMADD231PD.BCST 88(SI), Z16, Z11
	VFMADD231PD.BCST 96(SI), Z16, Z12
	VFMADD231PD.BCST 104(SI), Z16, Z13
	VFMADD231PD.BCST 112(SI), Z16, Z14
	VFMADD231PD.BCST 120(SI), Z16, Z15
	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  unit

scale:
	VBROADCASTSD alpha+80(FP), Z16
	VMULPD Z16, Z0, Z0
	VMULPD Z16, Z1, Z1
	VMULPD Z16, Z2, Z2
	VMULPD Z16, Z3, Z3
	VMULPD Z16, Z4, Z4
	VMULPD Z16, Z5, Z5
	VMULPD Z16, Z6, Z6
	VMULPD Z16, Z7, Z7
	VMULPD Z16, Z8, Z8
	VMULPD Z16, Z9, Z9
	VMULPD Z16, Z10, Z10
	VMULPD Z16, Z11, Z11
	VMULPD Z16, Z12, Z12
	VMULPD Z16, Z13, Z13
	VMULPD Z16, Z14, Z14
	VMULPD Z16, Z15, Z15

	// The C tile's address pattern, as for A above.
	MOVQ c_base+96(FP), DX
	MOVQ cs+120(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R11
	LEAQ (R8)(R8*4), R12
	LEAQ (R11)(R8*4), R13
	LEAQ (DX)(R8*8), AX

	// beta == ±0: store without reading C.
	MOVQ beta+88(FP), BX
	SHLQ $1, BX
	JZ   store

	VBROADCASTSD beta+88(FP), Z17
	VFMADD231PD (DX), Z17, Z0
	VFMADD231PD (DX)(R8*1), Z17, Z1
	VFMADD231PD (DX)(R8*2), Z17, Z2
	VFMADD231PD (DX)(R11*1), Z17, Z3
	VFMADD231PD (DX)(R8*4), Z17, Z4
	VFMADD231PD (DX)(R12*1), Z17, Z5
	VFMADD231PD (DX)(R11*2), Z17, Z6
	VFMADD231PD (DX)(R13*1), Z17, Z7
	VFMADD231PD (AX), Z17, Z8
	VFMADD231PD (AX)(R8*1), Z17, Z9
	VFMADD231PD (AX)(R8*2), Z17, Z10
	VFMADD231PD (AX)(R11*1), Z17, Z11
	VFMADD231PD (AX)(R8*4), Z17, Z12
	VFMADD231PD (AX)(R12*1), Z17, Z13
	VFMADD231PD (AX)(R11*2), Z17, Z14
	VFMADD231PD (AX)(R13*1), Z17, Z15

store:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, (DX)(R8*1)
	VMOVUPD Z2, (DX)(R8*2)
	VMOVUPD Z3, (DX)(R11*1)
	VMOVUPD Z4, (DX)(R8*4)
	VMOVUPD Z5, (DX)(R12*1)
	VMOVUPD Z6, (DX)(R11*2)
	VMOVUPD Z7, (DX)(R13*1)
	VMOVUPD Z8, (AX)
	VMOVUPD Z9, (AX)(R8*1)
	VMOVUPD Z10, (AX)(R8*2)
	VMOVUPD Z11, (AX)(R11*1)
	VMOVUPD Z12, (AX)(R8*4)
	VMOVUPD Z13, (AX)(R12*1)
	VMOVUPD Z14, (AX)(R11*2)
	VMOVUPD Z15, (AX)(R13*1)
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
