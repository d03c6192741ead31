package core

import (
	"errors"
	"testing"
	"testing/quick"

	"cacqr/internal/lin"
)

func TestCholeskyQRBasics(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{1, 1}, {8, 8}, {40, 10}, {100, 3}} {
		a := lin.RandomMatrix(sh.m, sh.n, int64(sh.m+sh.n))
		q, r, err := CholeskyQR(a, 1)
		if err != nil {
			t.Fatalf("%dx%d: %v", sh.m, sh.n, err)
		}
		if !r.IsUpperTriangular(1e-14) {
			t.Fatalf("%dx%d: R not upper triangular", sh.m, sh.n)
		}
		if e := lin.ResidualNorm(a, q, r); e > 1e-12 {
			t.Fatalf("%dx%d: residual %g", sh.m, sh.n, e)
		}
		if e := lin.OrthogonalityError(q); e > 1e-10 {
			t.Fatalf("%dx%d: orthogonality %g on well-conditioned input", sh.m, sh.n, e)
		}
	}
}

func TestCholeskyQRRejectsWide(t *testing.T) {
	if _, _, err := CholeskyQR(lin.NewMatrix(3, 5), 1); !errors.Is(err, lin.ErrShape) {
		t.Fatalf("got %v", err)
	}
}

func TestCholeskyQR2MatchesHouseholder(t *testing.T) {
	a := lin.RandomWithCond(60, 12, 1e4, 3)
	q, r, err := CholeskyQR2(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	qh, rh, err := lin.QR(a)
	if err != nil {
		t.Fatal(err)
	}
	// R is unique with positive diagonal, so both must agree.
	if !r.EqualWithin(rh, 1e-8*lin.MaxAbs(rh)*60) {
		t.Fatal("CQR2 R differs from Householder R")
	}
	if !q.EqualWithin(qh, 1e-8) {
		t.Fatal("CQR2 Q differs from Householder Q")
	}
}

func TestOrthogonalityDegradation(t *testing.T) {
	// The §I stability story: one pass loses orthogonality like κ², two
	// passes restore it to machine precision for κ ≲ 1/√ε.
	const m, n = 80, 10
	for _, cond := range []float64{1e2, 1e4, 1e6} {
		a := lin.RandomWithCond(m, n, cond, 42)
		q1, _, err := CholeskyQR(a, 1)
		if err != nil {
			t.Fatalf("κ=%g: %v", cond, err)
		}
		q2, _, err := CholeskyQR2(a, 1)
		if err != nil {
			t.Fatalf("κ=%g: %v", cond, err)
		}
		e1 := lin.OrthogonalityError(q1)
		e2 := lin.OrthogonalityError(q2)
		if e2 > 1e-12 {
			t.Fatalf("κ=%g: CQR2 orthogonality %g not at machine precision", cond, e2)
		}
		if cond >= 1e4 && e1 < 100*e2 {
			t.Fatalf("κ=%g: single-pass error %g should dwarf two-pass %g", cond, e1, e2)
		}
	}
	// Single-pass error must grow roughly like κ².
	aLo := lin.RandomWithCond(m, n, 1e2, 7)
	aHi := lin.RandomWithCond(m, n, 1e5, 7)
	qLo, _, err := CholeskyQR(aLo, 1)
	if err != nil {
		t.Fatal(err)
	}
	qHi, _, err := CholeskyQR(aHi, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lin.OrthogonalityError(qHi) < 1e2*lin.OrthogonalityError(qLo) {
		t.Fatalf("orthogonality loss does not grow with κ²: %g vs %g",
			lin.OrthogonalityError(qHi), lin.OrthogonalityError(qLo))
	}
}

func TestCholeskyQRFailsBeyondSqrtEps(t *testing.T) {
	// A singular matrix (zero column) makes the Gram matrix exactly
	// rank-deficient: CholeskyQR must fail cleanly, never panic.
	a := lin.RandomMatrix(60, 12, 5)
	for i := 0; i < 60; i++ {
		a.Set(i, 7, 0)
	}
	if _, _, err := CholeskyQR(a, 1); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("got %v, want ErrIllConditioned", err)
	}
	// At κ ≈ 1e9 (κ² ≫ 1/ε) CholeskyQR either fails or returns a badly
	// non-orthogonal Q — it must never silently look accurate.
	b := lin.RandomWithCond(60, 12, 1e9, 5)
	q, _, err := CholeskyQR(b, 1)
	if err == nil {
		if e := lin.OrthogonalityError(q); e < 1e-4 {
			t.Fatalf("κ=1e9 single-pass orthogonality %g is implausibly good", e)
		}
	}
}

func TestShiftedCQR3HandlesIllConditioned(t *testing.T) {
	// The three-pass shifted variant must succeed where CQR2 fails.
	a := lin.RandomWithCond(60, 12, 1e9, 5)
	q, r, err := ShiftedCQR3(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := lin.OrthogonalityError(q); e > 1e-10 {
		t.Fatalf("shifted CQR3 orthogonality %g", e)
	}
	if e := lin.ResidualNorm(a, q, r); e > 1e-8 {
		t.Fatalf("shifted CQR3 residual %g", e)
	}
	if !r.IsUpperTriangular(1e-12 * lin.MaxAbs(r)) {
		t.Fatal("shifted CQR3 R not upper triangular")
	}
}

func TestShiftedCholeskyQRAlwaysFactors(t *testing.T) {
	// Even a rank-deficient matrix must pass the shifted first step.
	a := lin.NewMatrix(20, 5)
	for i := 0; i < 20; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 4, float64(i))
	}
	q, r, err := ShiftedCholeskyQR(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e := lin.ResidualNorm(a, q, r); e > 1e-6 {
		t.Fatalf("shifted residual %g", e)
	}
}

func TestShiftedCholeskyQRZeroMatrix(t *testing.T) {
	// The all-zero matrix has no positive shift to offer; the shifted
	// variant must fail cleanly rather than divide by zero.
	if _, _, err := ShiftedCholeskyQR(lin.NewMatrix(6, 3), 1); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("got %v, want ErrIllConditioned", err)
	}
	if _, _, err := ShiftedCholeskyQR(lin.NewMatrix(2, 3), 1); !errors.Is(err, lin.ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestCholeskyQR2Property(t *testing.T) {
	// Property over random seeds: residual and orthogonality at machine
	// precision for generic inputs.
	f := func(seed int64) bool {
		a := lin.RandomMatrix(24, 6, seed)
		q, r, err := CholeskyQR2(a, 1)
		if err != nil {
			return false
		}
		return lin.OrthogonalityError(q) < 1e-12 && lin.ResidualNorm(a, q, r) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
