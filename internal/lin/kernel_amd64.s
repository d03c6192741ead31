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
