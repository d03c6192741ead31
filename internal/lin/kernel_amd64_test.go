//go:build amd64 && !purego

package lin

//lint:allow floatcompare the sentinel must survive exactly

import (
	"math"
	"math/rand"
	"testing"
)

// TestAssemblyAgreesWithGoKernel runs both micro-kernels in one process
// on the same tiles — every operand layout the drivers produce, depths
// from 0 past blockK, the alpha/beta grid — and checks that they agree
// and that the assembly stores nothing outside its tile.
func TestAssemblyAgreesWithGoKernel(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2+FMA on this CPU: the Go kernel is the only one that runs")
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
					got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
					kernelAVX2(kc, a, l.ars, l.aks, b, l.bks, alpha, beta, got, l.cs)
					kernelGo(kc, a, l.ars, l.aks, b, l.bks, alpha, beta, want, l.cs)
					for i := range got {
						if c0[i] == sentinel && got[i] != sentinel {
							t.Fatalf("kc=%d layout=%+v: assembly wrote outside the tile at %d", kc, l, i)
						}
						if d := math.Abs(got[i] - want[i]); !(d <= tol*math.Max(1, math.Abs(want[i]))) {
							t.Fatalf("kc=%d layout=%+v alpha=%g beta=%g: kernels differ by %.3g at %d", kc, l, alpha, beta, d, i)
						}
					}
				}
			}
		}
	}
}
