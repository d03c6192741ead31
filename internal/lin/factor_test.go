package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"fmt"
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

// cholInvSizes straddle the base case and every way the tile-rounded
// split can fall: one past, one short of and exactly on a power of two,
// and a size that is none of these.
var cholInvSizes = []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200}

// nanPadded returns an r×c view, at an offset and with a wider stride,
// into storage that is NaN everywhere, and that storage.
func nanPadded(r, c int) (view, storage *Matrix) {
	m := NewMatrix(r+5, c+7)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m.View(3, 4, r, c), m
}

// nanOutside reports whether every element of storage outside the view
// nanPadded cut from it is still NaN.
func nanOutside(storage *Matrix) bool {
	for i := 0; i < storage.Rows; i++ {
		for j := 0; j < storage.Cols; j++ {
			inside := i >= 3 && i < storage.Rows-2 && j >= 4 && j < storage.Cols-3
			if !inside && !math.IsNaN(storage.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestCholInvMatchesScalarOracle: the recursive engine and the scalar
// left-looking Cholesky plus forward-substitution inverse agree to
// n·ε·κ, L·Lᵀ reconstructs A to n·ε and L·Y is the identity to
// n·ε·√κ = n·ε·κ(L), each at least ten times what is measured. The
// engine also runs on strided views into NaN-filled storage, A's upper
// triangle NaN too, and must match its own run on compact, fully
// symmetric operands bit for bit: it reads only A's lower triangle,
// overwrites whatever L and Y held and writes nothing outside them.
func TestCholInvMatchesScalarOracle(t *testing.T) {
	const eps = 0x1p-52
	for _, kappa := range []float64{1e2, 1e8} {
		for _, n := range cholInvSizes {
			a := SyrkNew(RandomWithCond(n, n, math.Sqrt(kappa), int64(n)))
			l, y, err := CholInv(a)
			if err != nil {
				t.Fatalf("κ=%g n=%d: %v", kappa, n, err)
			}
			av, _ := nanPadded(n, n)
			lv, ls := nanPadded(n, n)
			yv, ys := nanPadded(n, n)
			for i := 0; i < n; i++ {
				copy(av.Data[i*av.Stride:i*av.Stride+i+1], a.Data[i*a.Stride:i*a.Stride+i+1])
			}
			if err := CholInvInto(av, lv, yv); err != nil {
				t.Fatalf("κ=%g n=%d views: %v", kappa, n, err)
			}
			if !lv.Equal(l) || !yv.Equal(y) {
				t.Fatalf("κ=%g n=%d: the strided NaN-padded run differs from the compact one", kappa, n)
			}
			if !nanOutside(ls) || !nanOutside(ys) {
				t.Fatalf("κ=%g n=%d: CholInvInto wrote outside L or Y", kappa, n)
			}
			if !l.IsLowerTriangular(0) || !y.IsLowerTriangular(0) {
				t.Fatalf("κ=%g n=%d: L or Y has a nonzero above the diagonal", kappa, n)
			}
			tol := float64(n) * eps * kappa
			l0, err := naiveCholesky(a)
			if err != nil {
				t.Fatalf("κ=%g n=%d oracle: %v", kappa, n, err)
			}
			y0 := naiveTriInverse(l0)
			if d := relDiff(l, l0); d > tol {
				t.Errorf("κ=%g n=%d: ‖L−L₀‖/‖L₀‖ = %.3g > %.3g", kappa, n, d, tol)
			}
			if d := relDiff(y, y0); d > tol {
				t.Errorf("κ=%g n=%d: ‖Y−Y₀‖/‖Y₀‖ = %.3g > %.3g", kappa, n, d, tol)
			}
			llt := NewMatrix(n, n)
			Gemm(false, true, 1, l, l, 0, llt)
			if d, tol := relDiff(llt, a), float64(n)*eps; d > tol {
				t.Errorf("κ=%g n=%d: ‖L·Lᵀ−A‖/‖A‖ = %.3g > %.3g", kappa, n, d, tol)
			}
			ly := MatMul(l, y)
			ly.Sub(Identity(n))
			if d, tol := FrobeniusNorm(ly), float64(n)*eps*math.Sqrt(kappa); d > tol {
				t.Errorf("κ=%g n=%d: ‖L·Y−I‖ = %.3g > %.3g", kappa, n, d, tol)
			}
		}
	}
}

// relDiff is ‖got−want‖_F / ‖want‖_F.
func relDiff(got, want *Matrix) float64 {
	d := got.Clone()
	d.Sub(want)
	return FrobeniusNorm(d) / FrobeniusNorm(want)
}

// indefiniteAt returns A = L·D·Lᵀ for a well-conditioned unit lower L and
// D = I but D(k,k) = −1: the leading k×k block is positive definite and
// pivot k is −1.
func indefiniteAt(n, k int) *Matrix {
	l := RandomMatrix(n, n, int64(n*1000+k))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case j == i:
				l.Data[i*n+j] = 1
			case j > i:
				l.Data[i*n+j] = 0
			default:
				l.Data[i*n+j] *= 0.5 / float64(n)
			}
		}
	}
	ld := l.Clone()
	for i := 0; i < n; i++ {
		ld.Data[i*n+k] = -ld.Data[i*n+k]
	}
	a := NewMatrix(n, n)
	Gemm(false, true, 1, ld, l, 0, a)
	return a
}

// TestCholInvBreakdownIsTyped: a failing pivot is ErrNotPositiveDefinite
// wherever the recursion meets it — inside the first base block, in a
// trailing Schur complement, as the very last pivot — and so is a NaN or
// ±Inf at any position of the lower triangle.
func TestCholInvBreakdownIsTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, k int
	}{
		{"first-base-block", 64, 3},
		{"schur-complement", 64, 40},
		{"deep-schur-complement", 129, 100},
		{"last-of-base", 16, 15},
		{"last-of-9", 9, 8},
		{"last-of-64", 64, 63},
		{"last-of-129", 129, 128},
	} {
		a := indefiniteAt(tc.n, tc.k)
		if _, _, err := CholInv(a.View(0, 0, tc.k, tc.k)); err != nil {
			t.Fatalf("%s: the leading %d×%d block fails: %v", tc.name, tc.k, tc.k, err)
		}
		if _, _, err := CholInv(a); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Errorf("%s: got %v, want ErrNotPositiveDefinite", tc.name, err)
		}
	}
	// The Gram matrix of [1 2; 2 4; 3 6; 4 8] is exactly singular, and its
	// second pivot is exactly 0 only if L₂₁ = 60/√30 is formed by a
	// division, not by a multiplication by the reciprocal.
	if _, _, err := CholInv(FromSlice(2, 2, []float64{30, 60, 60, 120})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("singular Gram: got %v, want ErrNotPositiveDefinite", err)
	}
	const n = 40 // splits 24 + 16, then 16 + 8: two levels, three base blocks
	a := RandomSPD(n, 3)
	l, y := NewMatrix(n, n), NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				b := a.Clone()
				b.Set(i, j, v)
				if err := CholInvInto(b, l, y); !errors.Is(err, ErrNotPositiveDefinite) {
					t.Fatalf("A(%d,%d) = %g: got %v, want ErrNotPositiveDefinite", i, j, v, err)
				}
			}
		}
	}
}

// TestCholInvIntoAllocatesNothing: cfr3d's base case runs the engine on
// workspace views, so the recursion's views must stay on the stack.
func TestCholInvIntoAllocatesNothing(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		a := RandomSPD(n, int64(n))
		l, y := NewMatrix(n, n), NewMatrix(n, n)
		var err error
		if got := testing.AllocsPerRun(20, func() { err = CholInvInto(a, l, y) }); got != 0 {
			t.Errorf("n=%d: CholInvInto allocates %.1f objects per call, want 0", n, got)
		}
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// BenchmarkCholInv reports the engine's rate in GFLOP/s of the charged
// CholFlops + TriInvFlops.
func BenchmarkCholInv(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			a := RandomSPD(n, 1)
			l, y := NewMatrix(n, n), NewMatrix(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := CholInvInto(a, l, y); err != nil {
					b.Fatal(err)
				}
			}
			flops := float64(CholFlops(n)+TriInvFlops(n)) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
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
		got := EstimateCond(a, 200)
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
	if k := EstimateCond(Identity(6), 200); math.Abs(k-1) > 1e-9 {
		t.Fatalf("κ(I) = %g", k)
	}
}
