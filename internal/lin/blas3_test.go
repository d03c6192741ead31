package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMul is the reference triple loop every blocked kernel is checked
// against.
func naiveMul(transA, transB bool, a, b *Matrix) *Matrix {
	if transA {
		a = a.T()
	}
	if transB {
		b = b.T()
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestGemmAllVariantsMatchNaive(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 9},
		{blockK, blockK, blockK},
		{blockK + 3, blockK - 1, 2*blockK + 5},
		{1, 60, 1}, {60, 1, 60},
	}
	for _, sh := range shapes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				ar, ac := sh.m, sh.k
				if ta {
					ar, ac = ac, ar
				}
				br, bc := sh.k, sh.n
				if tb {
					br, bc = bc, br
				}
				a := RandomMatrix(ar, ac, 11)
				b := RandomMatrix(br, bc, 22)
				want := naiveMul(ta, tb, a, b)
				got := NewMatrix(sh.m, sh.n)
				Gemm(ta, tb, 1, a, b, 0, got)
				if !got.EqualWithin(want, 1e-11) {
					t.Fatalf("Gemm(%v,%v) %dx%dx%d mismatch", ta, tb, sh.m, sh.k, sh.n)
				}
			}
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	a := RandomMatrix(4, 3, 1)
	b := RandomMatrix(3, 5, 2)
	c0 := RandomMatrix(4, 5, 3)

	// C = 2*A*B + 3*C0 computed two ways.
	c := c0.Clone()
	Gemm(false, false, 2, a, b, 3, c)
	want := naiveMul(false, false, a, b)
	want.Scale(2)
	scaled := c0.Clone()
	scaled.Scale(3)
	want.Add(scaled)
	if !c.EqualWithin(want, 1e-12) {
		t.Fatal("alpha/beta combination wrong")
	}

	// beta=0 must overwrite even when C holds NaN-free garbage.
	c = RandomMatrix(4, 5, 9)
	Gemm(false, false, 1, a, b, 0, c)
	if !c.EqualWithin(naiveMul(false, false, a, b), 1e-12) {
		t.Fatal("beta=0 did not overwrite C")
	}

	// alpha=0, beta=1 must leave C untouched.
	c = c0.Clone()
	Gemm(false, false, 0, a, b, 1, c)
	if !c.Equal(c0) {
		t.Fatal("alpha=0 modified C")
	}
}

func TestGemmShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(false, false, 1, NewMatrix(2, 3), NewMatrix(4, 2), 0, NewMatrix(2, 2))
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomMatrix(4, 3, seed)
		b := RandomMatrix(3, 5, seed+1)
		c := RandomMatrix(5, 2, seed+2)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.EqualWithin(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{1, 1}, {5, 3}, {3, 5}, {64, 17}, {100, 48}} {
		a := RandomMatrix(sh.m, sh.n, 7)
		want := naiveMul(true, false, a, a)
		got := SyrkNew(a)
		if !got.EqualWithin(want, 1e-11) {
			t.Fatalf("Syrk %dx%d mismatch", sh.m, sh.n)
		}
		// Result must be exactly symmetric (mirrored, not recomputed).
		for i := 0; i < sh.n; i++ {
			for j := 0; j < sh.n; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("Syrk asymmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestSyrkAccumulate(t *testing.T) {
	a := RandomMatrix(6, 4, 5)
	c := RandomMatrix(4, 4, 6)
	// Symmetrize c first so beta-scaling keeps it symmetric.
	sym := SyrkNew(c)
	got := sym.Clone()
	Syrk(2, a, 0.5, got)
	want := naiveMul(true, false, a, a)
	want.Scale(2)
	half := sym.Clone()
	half.Scale(0.5)
	want.Add(half)
	if !got.EqualWithin(want, 1e-11) {
		t.Fatal("Syrk alpha/beta accumulation wrong")
	}
}

func TestTrsmRightUpper(t *testing.T) {
	// B·U⁻¹ then ·U must restore B.
	u := randomUpper(6, 31)
	b := RandomMatrix(9, 6, 32)
	x := b.Clone()
	Trsm(Right, Upper, false, u, x)
	Trmm(Right, Upper, false, u, x)
	if !x.EqualWithin(b, 1e-10) {
		t.Fatal("Trsm/Trmm Right Upper not inverse operations")
	}
}

func TestTrsmLeftLower(t *testing.T) {
	l := randomLower(5, 33)
	b := RandomMatrix(5, 7, 34)
	x := b.Clone()
	Trsm(Left, Lower, false, l, x)
	// L·x must equal b.
	Trmm(Left, Lower, false, l, x)
	if !x.EqualWithin(b, 1e-10) {
		t.Fatal("Trsm Left Lower wrong")
	}
}

func TestTrsmLeftUpper(t *testing.T) {
	u := randomUpper(5, 43)
	b := RandomMatrix(5, 4, 44)
	x := b.Clone()
	Trsm(Left, Upper, false, u, x)
	Trmm(Left, Upper, false, u, x)
	if !x.EqualWithin(b, 1e-10) {
		t.Fatal("Trsm Left Upper wrong")
	}
}

func TestTrsmRightLower(t *testing.T) {
	l := randomLower(5, 53)
	b := RandomMatrix(6, 5, 54)
	x := b.Clone()
	Trsm(Right, Lower, false, l, x)
	Trmm(Right, Lower, false, l, x)
	if !x.EqualWithin(b, 1e-10) {
		t.Fatal("Trsm Right Lower wrong")
	}
}

func TestTrsmTransposedVariants(t *testing.T) {
	l := randomLower(6, 63)
	lt := l.T()

	// Left Lower transT ≡ Left Upper with Lᵀ.
	b := RandomMatrix(6, 3, 64)
	x1 := b.Clone()
	Trsm(Left, Lower, true, l, x1)
	x2 := b.Clone()
	Trsm(Left, Upper, false, lt, x2)
	if !x1.EqualWithin(x2, 1e-10) {
		t.Fatal("Left Lower transposed solve mismatch")
	}

	// Right Lower transT ≡ Right Upper with Lᵀ.
	c := RandomMatrix(4, 6, 65)
	y1 := c.Clone()
	Trsm(Right, Lower, true, l, y1)
	y2 := c.Clone()
	Trsm(Right, Upper, false, lt, y2)
	if !y1.EqualWithin(y2, 1e-10) {
		t.Fatal("Right Lower transposed solve mismatch")
	}
}

func TestTrsmSingularPanics(t *testing.T) {
	u := Identity(3)
	u.Set(1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on singular triangular solve")
		}
	}()
	Trsm(Right, Upper, false, u, NewMatrix(2, 3))
}

func TestTrmmMatchesGemmWithTriangularOperand(t *testing.T) {
	u := randomUpper(5, 71)
	l := randomLower(5, 72)
	b := RandomMatrix(5, 5, 73)

	cases := []struct {
		side Side
		tri  Triangle
		t    *Matrix
		want *Matrix
	}{
		{Right, Upper, u, naiveMul(false, false, b, u)},
		{Right, Lower, l, naiveMul(false, false, b, l)},
		{Left, Upper, u, naiveMul(false, false, u, b)},
		{Left, Lower, l, naiveMul(false, false, l, b)},
	}
	for _, c := range cases {
		got := b.Clone()
		Trmm(c.side, c.tri, false, c.t, got)
		if !got.EqualWithin(c.want, 1e-11) {
			t.Fatalf("Trmm side=%v tri=%v mismatch", c.side, c.tri)
		}
	}
}

func TestTrmmTransposedVariants(t *testing.T) {
	u := randomUpper(5, 81)
	l := randomLower(5, 82)
	b := RandomMatrix(5, 5, 83)

	cases := []struct {
		side Side
		tri  Triangle
		t    *Matrix
		want *Matrix
	}{
		{Right, Lower, l, naiveMul(false, true, b, l)}, // B·Lᵀ
		{Right, Upper, u, naiveMul(false, true, b, u)}, // B·Uᵀ
		{Left, Lower, l, naiveMul(true, false, l, b)},  // Lᵀ·B
		{Left, Upper, u, naiveMul(true, false, u, b)},  // Uᵀ·B
	}
	for _, c := range cases {
		got := b.Clone()
		Trmm(c.side, c.tri, true, c.t, got)
		if !got.EqualWithin(c.want, 1e-11) {
			t.Fatalf("Trmm side=%v tri=%v transT mismatch", c.side, c.tri)
		}
	}
}

func TestTrmmTransposeConsistency(t *testing.T) {
	// Multiplying by Lᵀ (transT) must equal multiplying by the explicit
	// transpose as an Upper operand, for both sides.
	l := randomLower(6, 91)
	lt := l.T()
	b := RandomMatrix(6, 6, 92)

	x1 := b.Clone()
	Trmm(Left, Lower, true, l, x1)
	x2 := b.Clone()
	Trmm(Left, Upper, false, lt, x2)
	if !x1.EqualWithin(x2, 1e-12) {
		t.Fatal("Left Lᵀ inconsistent with explicit transpose")
	}

	y1 := b.Clone()
	Trmm(Right, Lower, true, l, y1)
	y2 := b.Clone()
	Trmm(Right, Upper, false, lt, y2)
	if !y1.EqualWithin(y2, 1e-12) {
		t.Fatal("Right Lᵀ inconsistent with explicit transpose")
	}
}

// randomUpper returns a well-conditioned random upper-triangular matrix.
func randomUpper(n int, seed int64) *Matrix {
	m := RandomMatrix(n, n, seed)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, 0)
		}
		m.Set(i, i, 2+math.Abs(m.At(i, i)))
	}
	return m
}

// randomLower returns a well-conditioned random lower-triangular matrix.
func randomLower(n int, seed int64) *Matrix {
	return randomUpper(n, seed).T()
}
