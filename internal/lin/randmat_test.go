package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"testing"
)

func TestWithCondHitsPrescribedKappa(t *testing.T) {
	// The generator's whole point: κ₂ is exact by construction, and the
	// estimator (Gram route below ~1e8, Householder-QR fallback above)
	// must recover it within a few percent across the entire sweep.
	for _, kappa := range []float64{1, 1e7, 1e2, 1e5, 1e8, 1e12, 1e15} {
		a := RandomWithCond(192, 24, kappa, 3)
		got := EstimateCond(a, 200)
		if got < kappa*0.9 || got > kappa*1.1 {
			t.Fatalf("κ=%g: estimator measured %g", kappa, got)
		}
	}
}

func TestWithSpectrumSingularValuesExact(t *testing.T) {
	// A = U·diag(σ)·Vᵀ with orthonormal factors: ‖A‖_F² = Σσ² exactly
	// (up to roundoff), and the extremes are recovered by the estimator.
	sigma := []float64{4, 2, 1, 0.5}
	a := withSpectrum(64, 4, sigma, 11)
	var want float64
	for _, s := range sigma {
		want += s * s
	}
	got := FrobeniusNorm(a)
	if math.Abs(got*got-want) > 1e-12*want {
		t.Fatalf("‖A‖_F² = %g, want %g", got*got, want)
	}
	if k := EstimateCond(a, 200); math.Abs(k-8) > 1e-6 {
		t.Fatalf("κ = %g, want 8", k)
	}
}

func TestGeometricSpectrum(t *testing.T) {
	s := geometricSpectrum(5, 1e4)
	if s[0] != 1 || math.Abs(s[4]-1e-4) > 1e-19 {
		t.Fatalf("spectrum endpoints %g..%g, want 1..1e-4", s[0], s[4])
	}
	for i := 1; i < len(s); i++ {
		if s[i] >= s[i-1] {
			t.Fatalf("spectrum not decreasing at %d", i)
		}
	}
	if one := geometricSpectrum(1, 1e4); one[0] != 1 {
		t.Fatalf("n=1 spectrum %v", one)
	}
}

func TestPanics(t *testing.T) {
	assertPanics(t, "cond < 1", func() { RandomWithCond(8, 2, 0.5, 1) })
	assertPanics(t, "sigma length", func() { withSpectrum(8, 2, []float64{1}, 1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

// TestFlattenRoundTrip: a clone of a strided view is the view's values
// in compact row-major order, the layout the public Dense adopts.
func TestFlattenRoundTrip(t *testing.T) {
	a := RandomWithCond(6, 3, 10, 5)
	wide := NewMatrix(6, 5)
	wide.View(0, 1, 6, 3).CopyFrom(a)
	flat := wide.View(0, 1, 6, 3).Clone()
	if flat.Stride != 3 || len(flat.Data) != 18 {
		t.Fatalf("clone stride %d, %d values", flat.Stride, len(flat.Data))
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			if flat.Data[i*3+j] != a.At(i, j) {
				t.Fatalf("element (%d,%d) mismatch", i, j)
			}
		}
	}
}
