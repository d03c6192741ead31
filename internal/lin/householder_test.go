package lin

import (
	"fmt"
	"math"
	"testing"
)

// householderShapes are the inputs the blocked factorization is checked
// against the scalar oracle on: narrower than, exactly and not a multiple
// of the panel width, a single column, square, a zero column (tau = 0)
// inside the first and the second panel, a strided view, and the TSQR
// tree's stacked [R₁; R₂].
func householderShapes() []struct {
	name string
	a    *Matrix
} {
	zero := RandomMatrix(90, 45, 5)
	for i := 0; i < zero.Rows; i++ {
		zero.Set(i, 3, 0)
		zero.Set(i, 40, 0)
	}
	big := RandomMatrix(130, 90, 6)
	stacked := NewMatrix(80, 40)
	for h, seed := range []int64{7, 8} {
		r := RandomMatrix(40, 40, seed)
		for i := 0; i < 40; i++ {
			for j := i; j < 40; j++ {
				stacked.Set(h*40+i, j, r.At(i, j))
			}
		}
	}
	return []struct {
		name string
		a    *Matrix
	}{
		{"40x20", RandomMatrix(40, 20, 1)},
		{"64x32", RandomMatrix(64, 32, 2)},
		{"100x37", RandomMatrix(100, 37, 3)},
		{"1024x129", RandomMatrix(1024, 129, 4)},
		{"9x1", RandomMatrix(9, 1, 9)},
		{"70x70", RandomMatrix(70, 70, 10)},
		{"zero-columns", zero},
		{"strided-view", big.View(11, 17, 110, 66)},
		{"tsqr-stacked", stacked},
	}
}

// TestHouseholderQRMatchesScalarOracle: the blocked compact-WY
// factorization and the one-reflector-at-a-time oracle compute the same
// R, V, Tau and Q to rounding, signs included.
func TestHouseholderQRMatchesScalarOracle(t *testing.T) {
	const tol = 1e-13
	for _, tc := range householderShapes() {
		got, err := HouseholderQR(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := naiveHouseholderQR(tc.a)
		if d := maxRelDiff(got.R, want.R); d > tol {
			t.Errorf("%s: R differs from the oracle by %g", tc.name, d)
		}
		if d := maxRelDiff(got.V, want.V); d > tol {
			t.Errorf("%s: V differs from the oracle by %g", tc.name, d)
		}
		tg, tw := FromSlice(1, len(got.Tau), got.Tau), FromSlice(1, len(want.Tau), want.Tau)
		if d := maxRelDiff(tg, tw); d > tol {
			t.Errorf("%s: Tau differs from the oracle by %g", tc.name, d)
		}
		if d := maxRelDiff(got.FormQ(), naiveFormQ(want)); d > tol {
			t.Errorf("%s: Q differs from the oracle by %g", tc.name, d)
		}
	}
}

// TestBlockedApplyQ: the blocked applier round-trips, and FormQ is ApplyQ
// on [I; 0].
func TestBlockedApplyQ(t *testing.T) {
	for _, tc := range householderShapes() {
		m, n := tc.a.Rows, tc.a.Cols
		f, err := HouseholderQR(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := RandomMatrix(m, 5, 77)
		w := b.Clone()
		if err := f.ApplyQT(w); err != nil {
			t.Fatal(err)
		}
		if err := f.ApplyQ(w); err != nil {
			t.Fatal(err)
		}
		if d := maxRelDiff(w, b); d > 1e-13 {
			t.Errorf("%s: Q·(Qᵀ·B) differs from B by %g", tc.name, d)
		}
		e := NewMatrix(m, n)
		for j := 0; j < n; j++ {
			e.Set(j, j, 1)
		}
		if err := f.ApplyQ(e); err != nil {
			t.Fatal(err)
		}
		if d := maxRelDiff(f.FormQ(), e); d > 1e-13 {
			t.Errorf("%s: FormQ differs from ApplyQ([I;0]) by %g", tc.name, d)
		}
	}
}

// TestQRScaledInputStaysFinite: a finite input whose squares overflow (or
// underflow) factors like the unscaled one: R scales with it and Q stays
// orthonormal, where a plain sum of squares returned R = +Inf, Q = NaN.
func TestQRScaledInputStaysFinite(t *testing.T) {
	a := RandomMatrix(64, 8, 11)
	_, r0, err := QR(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{1e160, 1e-160} {
		as := a.Clone()
		as.Scale(s)
		q, r, err := QR(as)
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		want := r0.Clone()
		want.Scale(s)
		var diff, top float64
		for i := range r.Data {
			diff = math.Max(diff, math.Abs(r.Data[i]-want.Data[i]))
			top = math.Max(top, math.Abs(want.Data[i]))
		}
		if !(diff <= 1e-13*top) {
			t.Errorf("scale %g: R differs from scale·R(a) by %g of %g", s, diff, top)
		}
		if e := OrthogonalityError(q); !(e < 1e-13) {
			t.Errorf("scale %g: ‖QᵀQ−I‖ = %g", s, e)
		}
	}
}

// BenchmarkHouseholderQR reports the blocked factorization's rate in
// GFLOP/s of the paper's 2mn² − (2/3)n³ count.
func BenchmarkHouseholderQR(b *testing.B) {
	for _, sh := range []struct{ m, n int }{{1024, 128}, {8192, 128}} {
		b.Run(fmt.Sprintf("%dx%d", sh.m, sh.n), func(b *testing.B) {
			a := RandomMatrix(sh.m, sh.n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := HouseholderQR(a); err != nil {
					b.Fatal(err)
				}
			}
			flops := float64(HouseholderQRFlops(sh.m, sh.n)) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
