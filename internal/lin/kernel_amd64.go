//go:build amd64 && !purego

package lin

// kernelAVX2 is the micro-kernel in AVX2/FMA assembly (kernel_amd64.s);
// same contract as kernelGo. It has no bounds checks: the drivers
// validate every operand's extent before the first tile.
//
//go:noescape
func kernelAVX2(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAVX2 is decided once, before any kernel runs: the CPU has AVX2 and
// FMA, and the OS saves the YMM state across context switches.
var useAVX2 = func() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.7.0:EBX
		ymmXMM  = 6      // XCR0: SSE and AVX state enabled
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXMM != ymmXMM {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}()

func microKernel(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int) {
	if useAVX2 {
		kernelAVX2(kc, a, ars, aks, b, bks, alpha, beta, c, cs)
		return
	}
	kernelGo(kc, a, ars, aks, b, bks, alpha, beta, c, cs)
}
