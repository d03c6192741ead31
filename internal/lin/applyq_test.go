package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"math"
	"testing"
)

func TestApplyQTProducesR(t *testing.T) {
	// Qᵀ·A = [R; 0], the defining identity of the factored form.
	a := RandomMatrix(12, 5, 61)
	f, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	w := a.Clone()
	if err := f.ApplyQT(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i < 5 {
				want = f.R.At(i, j)
			}
			if math.Abs(w.At(i, j)-want) > 1e-12 {
				t.Fatalf("QᵀA[%d][%d] = %g, want %g", i, j, w.At(i, j), want)
			}
		}
	}
}

func TestApplyQInvertsApplyQT(t *testing.T) {
	a := RandomMatrix(16, 6, 62)
	f, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	b := RandomMatrix(16, 3, 63)
	w := b.Clone()
	if err := f.ApplyQT(w); err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyQ(w); err != nil {
		t.Fatal(err)
	}
	if !w.EqualWithin(b, 1e-12) {
		t.Fatal("Q·(Qᵀ·B) ≠ B")
	}
}

func TestApplyQMatchesExplicitQ(t *testing.T) {
	a := RandomMatrix(10, 4, 64)
	f, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	q := f.FormQ()
	// Apply Q to [I_n; 0] and compare with the explicit Q.
	b := NewMatrix(10, 4)
	for j := 0; j < 4; j++ {
		b.Set(j, j, 1)
	}
	if err := f.ApplyQ(b); err != nil {
		t.Fatal(err)
	}
	if !b.EqualWithin(q, 1e-12) {
		t.Fatal("implicit Q differs from explicit Q")
	}
}

func TestApplyQShapeChecks(t *testing.T) {
	a := RandomMatrix(8, 3, 65)
	f, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ApplyQT(NewMatrix(7, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v", err)
	}
	if err := f.ApplyQ(NewMatrix(9, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v", err)
	}
}
