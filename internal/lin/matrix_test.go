package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape %dx%d stride %d", m.Rows, m.Cols, m.Stride)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	// The slice must be copied, not aliased.
	data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromSlice aliased its input")
	}
}

func TestFromSliceBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if id.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestAtSetBounds(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func(){
		func() { m.At(-1, 0) },
		func() { m.At(0, 2) },
		func() { m.Set(2, 0, 1) },
		func() { m.Set(0, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := NewMatrix(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatal("view write did not reach parent")
	}
	if v.Stride != m.Stride {
		t.Fatal("view should preserve parent stride")
	}
	// A clone of the view must be compact and independent.
	c := v.Clone()
	c.Set(0, 0, 8)
	if m.At(1, 1) != 7 {
		t.Fatal("clone aliased the parent")
	}
	if c.Stride != 2 {
		t.Fatalf("clone stride = %d, want compact 2", c.Stride)
	}
}

func TestEmptyViewAtTheBottomEdge(t *testing.T) {
	// Zero rows below the last one, at any column offset, of a matrix and
	// of a view of it: in range, so a view and not a slice panic.
	m := NewMatrix(3, 4)
	for _, from := range []*Matrix{m, m.View(1, 1, 2, 3)} {
		v := from.View(from.Rows, 2, 0, 1)
		if v.Rows != 0 || v.Cols != 1 || len(v.Clone().Data) != 0 {
			t.Fatalf("empty view is %dx%d over %d values", v.Rows, v.Cols, len(v.Data))
		}
		Gemm(true, false, 1, v, v, 0, NewMatrix(1, 1))
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	m := NewMatrix(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.View(1, 1, 3, 1)
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomMatrix(5, 7, seed)
		return m.Equal(m.T().T())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleAxpy(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	s := a.Clone()
	s.Add(b)
	if !s.Equal(FromSlice(2, 2, []float64{6, 8, 10, 12})) {
		t.Fatalf("Add: %v", s)
	}
	s.Sub(b)
	if !s.Equal(a) {
		t.Fatalf("Sub did not undo Add: %v", s)
	}
	s.Scale(2)
	if !s.Equal(FromSlice(2, 2, []float64{2, 4, 6, 8})) {
		t.Fatalf("Scale: %v", s)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 2).Add(NewMatrix(2, 3))
}

func TestEqualWithin(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{1 + 1e-12, 2 - 1e-12})
	if !a.EqualWithin(b, 1e-10) {
		t.Fatal("should be equal within 1e-10")
	}
	if a.EqualWithin(b, 1e-14) {
		t.Fatal("should differ at 1e-14")
	}
	if a.EqualWithin(NewMatrix(2, 1), 1) {
		t.Fatal("shape mismatch must not be equal")
	}
}

func TestTriangularPredicates(t *testing.T) {
	u := FromSlice(3, 3, []float64{1, 2, 3, 0, 4, 5, 0, 0, 6})
	if !u.IsUpperTriangular(0) {
		t.Fatal("u should be upper triangular")
	}
	if u.IsLowerTriangular(0) {
		t.Fatal("u should not be lower triangular")
	}
	l := u.T()
	if !l.IsLowerTriangular(0) || l.IsUpperTriangular(0) {
		t.Fatal("l triangularity wrong")
	}
	// Diagonal matrices are both.
	d := Identity(3)
	if !d.IsUpperTriangular(0) || !d.IsLowerTriangular(0) {
		t.Fatal("identity should be both")
	}
}

func TestZero(t *testing.T) {
	m := RandomMatrix(3, 3, 1)
	m.Zero()
	if FrobeniusNorm(m) != 0 {
		t.Fatal("Zero left nonzero entries")
	}
}

func TestCopyFromRespectsViews(t *testing.T) {
	parent := NewMatrix(4, 4)
	v := parent.View(1, 1, 2, 2)
	src := FromSlice(2, 2, []float64{1, 2, 3, 4})
	v.CopyFrom(src)
	if parent.At(1, 1) != 1 || parent.At(2, 2) != 4 {
		t.Fatalf("CopyFrom through view failed: %v", parent)
	}
	if parent.At(0, 0) != 0 || parent.At(3, 3) != 0 {
		t.Fatal("CopyFrom wrote outside the view")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	for _, m := range []*Matrix{NewMatrix(0, 0), NewMatrix(1, 1), RandomMatrix(10, 10, 3)} {
		if s := m.String(); s == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -5, 3, 2})
	if MaxAbs(m) != 5 {
		t.Fatalf("MaxAbs = %v", MaxAbs(m))
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, 4})
	if math.Abs(FrobeniusNorm(m)-5) > 1e-15 {
		t.Fatalf("‖(3,4)‖ = %v", FrobeniusNorm(m))
	}
}
