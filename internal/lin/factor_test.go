package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 64} {
		a := RandomSPD(n, int64(n))
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !l.IsLowerTriangular(0) {
			t.Fatalf("n=%d: L not lower triangular", n)
		}
		llt := NewMatrix(n, n)
		Gemm(false, true, 1, l, l, 0, llt)
		if !llt.EqualWithin(a, 1e-9*float64(n)) {
			t.Fatalf("n=%d: LLᵀ ≠ A", n)
		}
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				t.Fatalf("n=%d: nonpositive diagonal", n)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := Identity(3)
	a.Set(1, 1, -1)
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
	// Zero matrix: first pivot is 0, not positive.
	if _, err := Cholesky(NewMatrix(2, 2)); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	// A Gram matrix that overflowed: +Inf is not a pivot, wherever it sits.
	for i := 0; i < 3; i++ {
		a := Identity(3)
		a.Set(i, i, math.Inf(1))
		if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("infinite pivot %d: got %v, want ErrNotPositiveDefinite", i, err)
		}
	}
}

func TestCholeskyProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomSPD(8, seed)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		llt := NewMatrix(8, 8)
		Gemm(false, true, 1, l, l, 0, llt)
		return llt.EqualWithin(a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTriInverseLower(t *testing.T) {
	for _, n := range []int{1, 2, 6, 33} {
		l := randomLower(n, int64(100+n))
		y, err := TriInverse(l, Lower)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !y.IsLowerTriangular(1e-14) {
			t.Fatalf("n=%d: L⁻¹ not lower triangular", n)
		}
		prod := MatMul(l, y)
		if !prod.EqualWithin(Identity(n), 1e-9) {
			t.Fatalf("n=%d: L·L⁻¹ ≠ I", n)
		}
	}
}

func TestTriInverseUpper(t *testing.T) {
	for _, n := range []int{1, 3, 12} {
		u := randomUpper(n, int64(200+n))
		y, err := TriInverse(u, Upper)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !y.IsUpperTriangular(1e-14) {
			t.Fatalf("n=%d: U⁻¹ not upper triangular", n)
		}
		prod := MatMul(y, u)
		if !prod.EqualWithin(Identity(n), 1e-9) {
			t.Fatalf("n=%d: U⁻¹·U ≠ I", n)
		}
	}
}

func TestTriInverseSingular(t *testing.T) {
	l := Identity(3)
	l.Set(2, 2, 0)
	if _, err := TriInverse(l, Lower); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

func TestCholInv(t *testing.T) {
	a := RandomSPD(10, 42)
	l, y, err := CholInv(a)
	if err != nil {
		t.Fatal(err)
	}
	// L·Y = I and (Y·A·Yᵀ) = I (whitening property used by CholeskyQR).
	if !MatMul(l, y).EqualWithin(Identity(10), 1e-9) {
		t.Fatal("L·L⁻¹ ≠ I")
	}
	way := MatMul(MatMul(y, a), y.T())
	if !way.EqualWithin(Identity(10), 1e-8) {
		t.Fatal("L⁻¹·A·L⁻ᵀ ≠ I")
	}
}

func TestHouseholderQRFactors(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{1, 1}, {4, 4}, {10, 4}, {50, 12}, {64, 64}} {
		a := RandomMatrix(sh.m, sh.n, int64(sh.m*31+sh.n))
		q, r, err := QR(a)
		if err != nil {
			t.Fatalf("%dx%d: %v", sh.m, sh.n, err)
		}
		if q.Rows != sh.m || q.Cols != sh.n || r.Rows != sh.n || r.Cols != sh.n {
			t.Fatalf("%dx%d: bad output shapes", sh.m, sh.n)
		}
		if !r.IsUpperTriangular(1e-13) {
			t.Fatalf("%dx%d: R not upper triangular", sh.m, sh.n)
		}
		for i := 0; i < sh.n; i++ {
			if r.At(i, i) < 0 {
				t.Fatalf("%dx%d: R diagonal not normalized non-negative", sh.m, sh.n)
			}
		}
		if e := OrthogonalityError(q); e > 1e-12*float64(sh.m) {
			t.Fatalf("%dx%d: ‖QᵀQ−I‖ = %g", sh.m, sh.n, e)
		}
		if e := ResidualNorm(a, q, r); e > 1e-13*float64(sh.m) {
			t.Fatalf("%dx%d: residual %g", sh.m, sh.n, e)
		}
	}
}

func TestQRRejectsUnderdetermined(t *testing.T) {
	if _, _, err := QR(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v, want ErrShape", err)
	}
}

func TestQRZeroColumn(t *testing.T) {
	// A rank-deficient input should still produce Q·R = A even though Q
	// is not fully determined.
	a := NewMatrix(5, 3)
	for i := 0; i < 5; i++ {
		a.Set(i, 0, float64(i+1))
		// middle column zero
		a.Set(i, 2, float64((i*i)%7))
	}
	q, r, err := QR(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := ResidualNorm(a, q, r); e > 1e-12 {
		t.Fatalf("residual %g on rank-deficient input", e)
	}
}

func TestOrthogonalityErrorOnExactQ(t *testing.T) {
	q := RandomOrthonormal(30, 8, 5)
	if e := OrthogonalityError(q); e > 1e-12 {
		t.Fatalf("orthogonality error %g on Householder Q", e)
	}
}

func TestRandomWithCondHitsTarget(t *testing.T) {
	for _, cond := range []float64{1, 1e2, 1e5, 1e8} {
		a := RandomWithCond(60, 12, cond, 99)
		got := TwoNormCond(a)
		if cond == 1 {
			if math.Abs(got-1) > 1e-6 {
				t.Fatalf("κ=1: measured %g", got)
			}
			continue
		}
		if got < cond/3 || got > cond*3 {
			t.Fatalf("target κ=%g, measured %g", cond, got)
		}
	}
}

func TestRandomOrthonormalIsOrthonormal(t *testing.T) {
	q := RandomOrthonormal(40, 10, 123)
	if e := OrthogonalityError(q); e > 1e-12 {
		t.Fatalf("orthogonality error %g", e)
	}
}

func TestRandomMatrixDeterministic(t *testing.T) {
	a := RandomMatrix(4, 4, 7)
	b := RandomMatrix(4, 4, 7)
	if !a.Equal(b) {
		t.Fatal("same seed produced different matrices")
	}
	c := RandomMatrix(4, 4, 8)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestTwoNormCondIdentity(t *testing.T) {
	if k := TwoNormCond(Identity(6)); math.Abs(k-1) > 1e-9 {
		t.Fatalf("κ(I) = %g", k)
	}
}
