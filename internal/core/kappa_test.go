package core

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"fmt"
	"testing"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
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
	// The shifted CQR3 on a 1D grid must deliver the same robustness as
	// the sequential one at κ = 1e10 (far beyond plain CQR2), and the
	// replicated R must agree with the sequential run's to roundoff.
	const p, m, n = 4, 256, 32
	kappa := 1e10
	a := lin.RandomWithCond(m, n, kappa, 7)
	_, rSeq, err := ShiftedCQR3(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	runOneD(t, p, a, func(g *grid.Grid, local *lin.Matrix) error {
		q, r, err := ShiftedCACQR3(g, local, m, n, Params{})
		if err != nil {
			return err
		}
		if !r.EqualWithin(rSeq, 1e-9) {
			return errors.New("distributed shifted R differs from the sequential reference")
		}
		qG, err := dist.Gather(g.Slice, q, m, n, p, 1)
		if err != nil || qG == nil {
			return err
		}
		if orth, resid := lin.OrthogonalityError(qG), lin.ResidualNorm(a, qG, r); orth > orthTol || resid > residTol {
			return fmt.Errorf("κ=%g distributed: orth=%g resid=%g", kappa, orth, resid)
		}
		return nil
	})
}

func TestKappaOneDShiftedCQR3ErrorPaths(t *testing.T) {
	a := lin.RandomWithCond(64, 8, 10, 1)
	runGrid(t, 1, 3, func(_ *simmpi.Proc, g *grid.Grid) error {
		if _, _, err := ShiftedCACQR3(g, a.View(0, 0, 21, 8), 64, 8, Params{}); err == nil {
			return errors.New("indivisible m accepted")
		}
		return nil
	})
	runGrid(t, 1, 2, func(_ *simmpi.Proc, g *grid.Grid) error {
		if _, _, err := ShiftedCACQR3(g, a.View(0, 0, 16, 8), 64, 8, Params{}); err == nil {
			return errors.New("wrong local block shape accepted")
		}
		return nil
	})
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
