//go:build amd64 && !purego

package lin

//lint:allow floatcompare the sentinel must survive exactly, and the assembly bodies must agree bit for bit

import (
	"math"
	"math/rand"
	"testing"
)

// withOtherKernels runs f again with every other assembly body this CPU
// can run selected: on an AVX-512 machine, with useAVX512 off, so that
// the four-quarter AVX2 dispatch is covered there too.
func withOtherKernels(f func()) {
	if !useAVX512 {
		return
	}
	useAVX512 = false
	defer func() { useAVX512 = true }()
	f()
}

// TestAssemblyAgreesWithGoKernel runs every micro-kernel body this CPU
// has in one process on the same tiles — every operand layout the drivers
// produce, depths from 0 past blockK, the alpha/beta grid — and checks
// that the assembly bodies agree with each other bit for bit (the same
// fused chain per element), with kernelGo (which does not fuse) to
// rounding, and that they store nothing outside their tile.
func TestAssemblyAgreesWithGoKernel(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2+FMA on this CPU: the Go kernel is the only one that runs")
	}
	type body struct {
		name string
		run  func(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int)
	}
	kernels := []body{{"avx2-quarters", func(kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int) {
		was := useAVX512
		useAVX512 = false
		defer func() { useAVX512 = was }()
		microKernel(tileM, kc, a, ars, aks, b, bks, alpha, beta, c, cs)
	}}}
	if useAVX512 {
		kernels = append(kernels, body{"avx512", kernelAVX512})
	}
	const tol = 1e-13
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64() - 0.5
		}
		return s
	}
	layouts := []struct{ ars, aks, bks, cs int }{
		{1, tileM, tileN, tileN}, // packed A strip, packed B panel, stack C tile
		{300, 1, tileN, 37},      // row-major A, packed B, C inside a wider matrix
		{1, 300, 300, 11},        // transposed A and in-place B at their matrix stride
	}
	for _, kc := range []int{0, 1, 2, 3, 7, blockK, blockK + 5} {
		for _, l := range layouts {
			a := random((tileM-1)*l.ars + kc*l.aks + 1)
			b := random(kc*l.bks + tileN)
			for _, alpha := range scalars {
				for _, beta := range scalars {
					c0 := random(tileM*l.cs + 2*tileN)
					for i := range c0 {
						if row, col := i/l.cs, i%l.cs; row >= tileM || col >= tileN {
							c0[i] = sentinel
						}
					}
					want := append([]float64(nil), c0...)
					kernelGo(tileM, kc, a, l.ars, l.aks, b, l.bks, alpha, beta, want, l.cs)
					var first []float64
					for _, kern := range kernels {
						got := append([]float64(nil), c0...)
						kern.run(kc, a, l.ars, l.aks, b, l.bks, alpha, beta, got, l.cs)
						for i := range got {
							if c0[i] == sentinel && got[i] != sentinel {
								t.Fatalf("%s kc=%d layout=%+v: wrote outside the tile at %d", kern.name, kc, l, i)
							}
							if d := math.Abs(got[i] - want[i]); !(d <= tol*math.Max(1, math.Abs(want[i]))) {
								t.Fatalf("%s kc=%d layout=%+v alpha=%g beta=%g: differs from kernelGo by %.3g at %d", kern.name, kc, l, alpha, beta, d, i)
							}
							if first != nil && math.Float64bits(got[i]) != math.Float64bits(first[i]) {
								t.Fatalf("%s kc=%d layout=%+v alpha=%g beta=%g: %v at %d, %s gave %v", kern.name, kc, l, alpha, beta, got[i], i, kernels[0].name, first[i])
							}
						}
						if first == nil {
							first = got
						}
					}
				}
			}
		}
	}
}
