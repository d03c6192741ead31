package core

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// The κ-sweep property tests: every stability claim the condition-aware
// planner routes on is asserted here against matrices with exactly
// prescribed condition numbers (lin.RandomWithCond's scaled SVD
// composition).
//
// The theory under test (§I and Fukaya et al., the paper's ref. [3]):
//   - CholeskyQR2 reaches O(ε) orthogonality while κ ≲ ε^{-1/2} ≈ 1e7
//     and breaks down (indefinite Gram matrix) well beyond it.
//   - ShiftedCQR3 extends the regime to κ ≲ 1/(8·√(11(mn+n²))·ε)
//     (≈ 1e12 at these shapes): the shifted pass maps κ(A) to
//     ≈ √(11(mn+n²)ε)·κ(A), which CQR2 then finishes.
//   - The residual ‖A−QR‖/‖A‖ stays O(ε) whenever the factorization
//     completes at all (CholeskyQR is backward stable).

// kappas is the standard sweep: from comfortably inside CholeskyQR2's
// κ ≲ ε^{-1/2} regime (1e2, 1e5), through its breakdown (1e8), into
// territory only ShiftedCQR3 (1e12) and the Householder-based algorithms
// (1e15) can handle.
var kappas = []float64{1e2, 1e5, 1e8, 1e12, 1e15}

const (
	sweepM, sweepN = 256, 32
	orthTol        = 1e-12
	residTol       = 1e-12
)

func TestKappaSweepCholeskyQR2(t *testing.T) {
	for _, kappa := range kappas {
		a := lin.RandomWithCond(sweepM, sweepN, kappa, 42)
		q, r, err := CholeskyQR2(a, 0)
		switch {
		case kappa <= 1e5:
			// Comfortably inside the regime: must match Householder.
			if err != nil {
				t.Fatalf("κ=%g: CQR2 failed: %v", kappa, err)
			}
			orth, resid := lin.OrthogonalityError(q), lin.ResidualNorm(a, q, r)
			if orth > orthTol || resid > residTol {
				t.Fatalf("κ=%g: CQR2 orth=%g resid=%g", kappa, orth, resid)
			}
		case kappa >= 1e12:
			// κ²ε ≫ 1: the Gram matrix is numerically indefinite. Either
			// the factorization errors (the expected path) or whatever it
			// returns has lost orthogonality — it must not silently
			// produce a good-looking Q.
			if err == nil {
				if orth := lin.OrthogonalityError(q); orth <= 1e-8 {
					t.Fatalf("κ=%g: CQR2 unexpectedly delivered orth=%g", kappa, orth)
				}
			} else if !errors.Is(err, ErrIllConditioned) {
				t.Fatalf("κ=%g: wrong error class: %v", kappa, err)
			}
		}
		// κ=1e8 sits on the breakdown boundary (κ²ε ≈ 2): whether the
		// Cholesky survives is seed luck, so only the planner's refusal
		// to route there is asserted (plan package tests).
	}
}

func TestKappaSweepShiftedCQR3(t *testing.T) {
	for _, kappa := range kappas {
		if kappa > 1e12 {
			continue // beyond the one-shift regime at this shape
		}
		a := lin.RandomWithCond(sweepM, sweepN, kappa, 42)
		q, r, err := ShiftedCQR3(a, 0)
		if err != nil {
			t.Fatalf("κ=%g: ShiftedCQR3 failed: %v", kappa, err)
		}
		orth, resid := lin.OrthogonalityError(q), lin.ResidualNorm(a, q, r)
		if orth > orthTol || resid > residTol {
			t.Fatalf("κ=%g: ShiftedCQR3 orth=%g resid=%g", kappa, orth, resid)
		}
	}
}

func TestKappaShiftedCQR3RegimeBoundary(t *testing.T) {
	// Beyond κ ≈ 1/(8√(11(mn+n²))·ε) one shifted pass cannot tame the
	// conditioning: the refinement's CholeskyQR2 must report the
	// ill-conditioning rather than fabricate a Q.
	a := lin.RandomWithCond(sweepM, sweepN, 1e15, 42)
	q, _, err := ShiftedCQR3(a, 0)
	if err == nil {
		if orth := lin.OrthogonalityError(q); orth <= 1e-8 {
			t.Fatalf("κ=1e15: one-shift CQR3 unexpectedly delivered orth=%g", orth)
		}
	} else if !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("κ=1e15: wrong error class: %v", err)
	}
}

func TestKappaOneDShiftedCQR3Distributed(t *testing.T) {
	// The distributed 1D shifted CQR3 must deliver the same robustness
	// as the sequential one at κ = 1e10 (far beyond plain CQR2), and the
	// replicated R must agree with the sequential run's to roundoff.
	const p, m, n = 4, 256, 32
	kappa := 1e10
	a := lin.RandomWithCond(m, n, kappa, 7)
	qSeq, rSeq, err := ShiftedCQR3(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = qSeq
	var rDist *lin.Matrix
	var orth, resid float64
	_, err = simmpi.RunWithOptions(p, simmpi.Options{Timeout: 60 * time.Second}, func(pr *simmpi.Proc) error {
		local := a.View(pr.Rank()*(m/p), 0, m/p, n).Clone()
		qL, r, err := OneDShiftedCQR3(pr.World(), local, m, n, 0)
		if err != nil {
			return err
		}
		// Assemble Q on rank 0 by stacking the blocked rows.
		flat, err := pr.World().Allgather(flatten(qL))
		if err != nil {
			return err
		}
		if pr.Rank() == 0 {
			q := lin.FromSlice(m, n, flat)
			orth, resid = lin.OrthogonalityError(q), lin.ResidualNorm(a, q, r)
			rDist = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if orth > orthTol || resid > residTol {
		t.Fatalf("κ=%g distributed: orth=%g resid=%g", kappa, orth, resid)
	}
	if !rDist.EqualWithin(rSeq, 1e-9) {
		t.Fatal("distributed shifted R differs from the sequential reference")
	}
}

func TestKappaOneDShiftedCQR3ErrorPaths(t *testing.T) {
	a := lin.RandomWithCond(64, 8, 10, 1)
	_, err := simmpi.RunWithOptions(3, simmpi.Options{Timeout: 30 * time.Second}, func(pr *simmpi.Proc) error {
		_, _, err := OneDShiftedCQR3(pr.World(), a.View(0, 0, 21, 8), 64, 8, 0)
		return err
	})
	if err == nil {
		t.Fatal("indivisible m accepted")
	}
	_, err = simmpi.RunWithOptions(2, simmpi.Options{Timeout: 30 * time.Second}, func(pr *simmpi.Proc) error {
		_, _, err := OneDShiftedCQR3(pr.World(), a.View(0, 0, 16, 8), 64, 8, 0)
		return err
	})
	if err == nil {
		t.Fatal("wrong local block shape accepted")
	}
}

func TestKappaSweepWorkersInvariance(t *testing.T) {
	// The Workers knob must not change a single bit of the shifted
	// path's factors — ill-conditioned inputs are exactly where parallel
	// reassociation would first show.
	a := lin.RandomWithCond(sweepM, sweepN, 1e9, 13)
	q1, r1, err := ShiftedCQR3(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	q4, r4, err := ShiftedCQR3(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q1.Data {
		if q1.Data[i] != q4.Data[i] {
			t.Fatalf("Workers=4 changed Q at %d", i)
		}
	}
	for i := range r1.Data {
		if r1.Data[i] != r4.Data[i] {
			t.Fatalf("Workers=4 changed R at %d", i)
		}
	}
}

// flatten is a row-major copy helper for the Allgather above.
func flatten(m *lin.Matrix) []float64 {
	out := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out[i*m.Cols:(i+1)*m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// TestKappaTable logs the κ-vs-orthogonality table the README's
// "Numerical robustness" section reproduces (visible with -v).
func TestKappaTable(t *testing.T) {
	t.Logf("%-8s %-14s %-14s %-14s", "κ", "CQR2", "ShiftedCQR3", "Householder")
	cell := func(q *lin.Matrix, err error) string {
		if err != nil {
			return "breakdown"
		}
		return fmt.Sprintf("%.1e", lin.OrthogonalityError(q))
	}
	for _, kappa := range kappas {
		a := lin.RandomWithCond(sweepM, sweepN, kappa, 42)
		q2, _, err2 := CholeskyQR2(a, 0)
		q3, _, err3 := ShiftedCQR3(a, 0)
		qh, _, errh := lin.QR(a)
		t.Logf("%-8.0e %-14s %-14s %-14s", kappa, cell(q2, err2), cell(q3, err3), cell(qh, errh))
	}
}
