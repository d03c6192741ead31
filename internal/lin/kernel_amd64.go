//go:build amd64 && !purego

package lin

// kernelAVX512 is the 16×8 micro-kernel in AVX-512 assembly
// (kernel_amd64.s), one ZMM accumulator per tile row; kernelAVX2 is the
// 4×8 kernel in AVX2/FMA assembly, run on a tile's 4-row quarters when
// the CPU has no AVX-512. Both keep kernelGo's contract with the
// same fused chain per element, so they agree bitwise. Neither has
// bounds checks: the drivers validate every operand's extent before the
// first tile.
//
//go:noescape
func kernelAVX512(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int)

//go:noescape
func kernelAVX2(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAVX2 and useAVX512 are decided once, before any kernel runs: the
// CPU has AVX2 and FMA (and AVX512F), and the OS saves the YMM (and the
// opmask and ZMM) state across context switches. useAVX512 implies
// useAVX2. It assumes full-width 512-bit FMA: the ZMM body's gain was
// measured on Sapphire Rapids only (README, Performance).
var useAVX2, useAVX512 = func() (bool, bool) {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5  // CPUID.7.0:EBX
		avx512f = 1 << 16 // CPUID.7.0:EBX
		ymmXMM  = 0x06    // XCR0: SSE and AVX state enabled
		zmmXMM  = 0xE6    // XCR0: also opmask, ZMM_Hi256 and Hi16_ZMM state
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false, false
	}
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	if xcr0&ymmXMM != ymmXMM || b&avx2 == 0 {
		return false, false
	}
	return true, xcr0&zmmXMM == zmmXMM && b&avx512f != 0
}()

// microKernel computes at least the tile's first rows rows (1 ≤ rows ≤
// tileM); the rest of C's tile may be left as it was or computed too.
// The ZMM body always runs all sixteen. The AVX2 body runs only the 4-row
// quarters that hold a needed row, so it spends nothing on an edge tile's
// padding or on rows under SYRK's diagonal; rows are independent, so the
// quarters are safe even when C aliases A (in-place TRMM).
func microKernel(rows, kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int) {
	switch {
	case useAVX512:
		kernelAVX512(kc, a, ars, aks, b, bks, alpha, beta, c, cs)
	case useAVX2:
		for q := 0; q < rows; q += 4 {
			kernelAVX2(kc, a[q*ars:], ars, aks, b, bks, alpha, beta, c[q*cs:], cs)
		}
	default:
		kernelGo(rows, kc, a, ars, aks, b, bks, alpha, beta, c, cs)
	}
}
