package cacqr

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cacqr/internal/lin"
)

// buildSystem constructs an exactly solvable overdetermined system
// A·xTrue = b with known solution.
func buildSystem(m, n int, seed int64) (*Dense, []float64, []float64) {
	a := RandomMatrix(m, n, seed)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j+1) / 2
	}
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a.At(i, j) * xTrue[j]
		}
		b[i] = s
	}
	return a, b, xTrue
}

func TestSolveLeastSquaresExact(t *testing.T) {
	a, b, xTrue := buildSystem(64, 8, 1)
	x, err := SolveLeastSquares(a, b, GridSpec{C: 2, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range x {
		if math.Abs(x[j]-xTrue[j]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", j, x[j], xTrue[j])
		}
	}
}

func TestSolveLeastSquaresSeq(t *testing.T) {
	a, b, xTrue := buildSystem(50, 5, 2)
	x, err := SolveLeastSquaresSeq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range x {
		if math.Abs(x[j]-xTrue[j]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", j, x[j], xTrue[j])
		}
	}
}

// solveWithQR forms Qᵀb in one row-major sweep; x must stay bitwise what
// n strided column walks over Q give, since each sum keeps its row order.
func TestSolveWithQRMatchesColumnWalk(t *testing.T) {
	a, b, _ := buildSystem(4096, 64, 3)
	q, r, err := CholeskyQR2(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := solveWithQR(q, r, b)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Cols
	want := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		var s float64
		for i := 0; i < q.Rows; i++ {
			s += q.At(i, j) * b[i]
		}
		for k := j + 1; k < n; k++ {
			s -= r.At(j, k) * want[k]
		}
		want[j] = s / r.At(j, j)
	}
	for j := range x {
		if x[j] != want[j] {
			t.Fatalf("x[%d] = %v, column-walk reference %v", j, x[j], want[j])
		}
	}
}

func TestSolveLeastSquaresResidualMinimized(t *testing.T) {
	// With noise added, the LS solution must have a residual orthogonal
	// to the column space: ‖Aᵀ(Ax−b)‖ ≈ 0.
	a, b, _ := buildSystem(80, 6, 3)
	for i := range b {
		b[i] += 0.01 * math.Sin(float64(i))
	}
	x, err := SolveLeastSquares(a, b, GridSpec{C: 1, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < a.Cols; j++ {
		var g float64
		for i := 0; i < a.Rows; i++ {
			var pred float64
			for k := 0; k < a.Cols; k++ {
				pred += a.At(i, k) * x[k]
			}
			g += a.At(i, j) * (pred - b[i])
		}
		if math.Abs(g) > 1e-9 {
			t.Fatalf("normal equations violated at column %d: %g", j, g)
		}
	}
}

func TestSolveLeastSquaresSeqIllConditionedFallsBack(t *testing.T) {
	// κ ≈ 1e10 breaks CholeskyQR2; the solver must fall back to the
	// shifted three-pass variant and still produce a usable solution.
	m, n := 120, 6
	a := RandomWithCond(m, n, 1e10, 4)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			b[i] += a.At(i, j)
		}
	}
	x, err := SolveLeastSquaresSeq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The true solution is all-ones; with κ=1e10 we accept a loose
	// forward error but require the residual to be tiny.
	var rss, bss float64
	for i := 0; i < m; i++ {
		var pred float64
		for j := 0; j < n; j++ {
			pred += a.At(i, j) * x[j]
		}
		rss += (pred - b[i]) * (pred - b[i])
		bss += b[i] * b[i]
	}
	if math.Sqrt(rss/bss) > 1e-6 {
		t.Fatalf("relative residual %g too large", math.Sqrt(rss/bss))
	}
}

func TestSolveLeastSquaresValidation(t *testing.T) {
	a := RandomMatrix(8, 2, 5)
	if _, err := SolveLeastSquares(a, make([]float64, 7), GridSpec{C: 1, D: 2}, Options{}); err == nil {
		t.Fatal("mismatched rhs accepted")
	}
	if _, err := SolveLeastSquaresSeq(a, make([]float64, 3)); err == nil {
		t.Fatal("mismatched rhs accepted (seq)")
	}
}

// rankDeficient returns an m×n matrix of exact rank n−1 (one zero
// column, so the Gram matrix is exactly singular) and a compatible rhs.
func rankDeficient(m, n int, seed int64) (*Dense, []float64) {
	a := RandomMatrix(m, n, seed)
	for i := 0; i < m; i++ {
		a.Set(i, n/2, 0)
	}
	return a, make([]float64, m)
}

func TestSolveLeastSquaresRankDeficientErrors(t *testing.T) {
	// The CholeskyQR paths must report rank deficiency as an error, not
	// panic: the Gram matrix is singular, so the distributed Cholesky
	// fails cleanly.
	a, b := rankDeficient(64, 8, 6)
	if _, err := SolveLeastSquares(a, b, GridSpec{C: 2, D: 4}, Options{}); err == nil {
		t.Fatal("rank-deficient A accepted on the grid path")
	}
	if _, err := SolveLeastSquares(a, b, AutoGrid(8), Options{}); err == nil {
		t.Fatal("rank-deficient A accepted on the auto path")
	}
	// The sequential path falls back to the shifted (regularized)
	// variant; it may solve or error, but must never panic or return
	// non-finite values.
	if x, err := SolveLeastSquaresSeq(a, b); err == nil {
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("seq fallback returned non-finite x[%d] = %v", j, v)
			}
		}
	}
}

func TestSolveLeastSquaresInvalidOptionsError(t *testing.T) {
	a, b, _ := buildSystem(32, 4, 7)
	// Invalid grids: c ∤ d, d < c, negative c.
	if _, err := SolveLeastSquares(a, b, GridSpec{C: 2, D: 3}, Options{}); err == nil {
		t.Fatal("c∤d accepted")
	}
	if _, err := SolveLeastSquares(a, b, GridSpec{C: 4, D: 2}, Options{}); err == nil {
		t.Fatal("d<c accepted")
	}
	if _, err := SolveLeastSquares(a, b, GridSpec{C: -1, D: 2}, Options{}); err == nil {
		t.Fatal("negative c accepted")
	}
	// Auto mode without a processor budget.
	if _, err := SolveLeastSquares(a, b, GridSpec{}, Options{}); err == nil {
		t.Fatal("auto grid without procs accepted")
	}
	// Invalid Workers knob on both fixed and auto modes.
	if _, err := SolveLeastSquares(a, b, GridSpec{C: 1, D: 4}, Options{Workers: -2}); err == nil {
		t.Fatal("negative Workers accepted")
	}
	if _, err := SolveLeastSquares(a, b, AutoGrid(4), Options{Workers: -2}); err == nil {
		t.Fatal("negative Workers accepted (auto)")
	}
}

func TestSolveLeastSquaresAutoMode(t *testing.T) {
	a, b, xTrue := buildSystem(128, 8, 9)
	x, err := SolveLeastSquares(a, b, AutoGrid(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range x {
		if math.Abs(x[j]-xTrue[j]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", j, x[j], xTrue[j])
		}
	}
}

// householderLS is the reference solution x = R⁻¹·Qᵀ·b from the
// classical Householder factorization.
func householderLS(t *testing.T, a *Dense, b []float64) []float64 {
	t.Helper()
	q, r, err := HouseholderQR(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := solveWithQR(q, r, b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func relErr(x, ref []float64) float64 {
	var d, n float64
	for j := range x {
		d += (x[j] - ref[j]) * (x[j] - ref[j])
		n += ref[j] * ref[j]
	}
	return math.Sqrt(d / n)
}

// TestSolveLeastSquaresFixedGridIllConditioned is the acceptance-shaped
// regression for the condition-aware fixed-grid solve: before the fix, a
// κ=1e10 input on a fixed grid either failed outright (CholeskyQR2 Gram
// breakdown) or silently lost the solution's accuracy; now the solve
// path reroutes to the shifted three-pass variant and matches the
// Householder reference to 1e-6.
func TestSolveLeastSquaresFixedGridIllConditioned(t *testing.T) {
	m, n := 256, 8
	a := RandomWithCond(m, n, 1e10, 11)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		b[i] = math.Sin(float64(i)) + 0.5
	}
	ref := householderLS(t, a, b)
	for _, spec := range []GridSpec{{C: 1, D: 4}, {C: 2, D: 4}} {
		x, err := SolveLeastSquares(a, b, spec, Options{})
		if err != nil {
			t.Fatalf("grid %dx%dx%d: %v", spec.C, spec.D, spec.C, err)
		}
		if e := relErr(x, ref); e > 1e-6 {
			t.Fatalf("grid %dx%dx%d: relative error vs Householder reference %g > 1e-6", spec.C, spec.D, spec.C, e)
		}
	}
	// With an explicit hint the estimator is skipped but the routing is
	// the same.
	x, err := SolveLeastSquares(a, b, GridSpec{C: 2, D: 4}, Options{CondEst: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, ref); e > 1e-6 {
		t.Fatalf("hinted solve: relative error %g > 1e-6", e)
	}
}

// TestFixedGridRoutingRecorded pins the internal routing contract: the
// fixed-grid solve path records the condition estimate it routed on, and
// ill-conditioned inputs actually leave the requested grid.
func TestFixedGridRoutingRecorded(t *testing.T) {
	m, n := 256, 8
	well := RandomMatrix(m, n, 12)
	res, err := factorizeCondAware(well, GridSpec{C: 2, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CondEst <= 0 || math.IsInf(res.CondEst, 0) {
		t.Fatalf("well-conditioned estimate not recorded: %g", res.CondEst)
	}
	ill := RandomWithCond(m, n, 1e10, 13)
	res, err = factorizeCondAware(ill, GridSpec{C: 2, D: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CondEst < 1e8 {
		t.Fatalf("κ=1e10 estimate recorded as %g", res.CondEst)
	}
	if o := OrthogonalityError(res.Q); o > 1e-8 {
		t.Fatalf("rerouted factorization lost orthogonality: %g", o)
	}
	// Beyond even the shifted regime the route is plain TSQR; at κ=1e15
	// with an explicit hint the factors must still be orthogonal.
	res, err = factorizeCondAware(ill, GridSpec{C: 2, D: 4}, Options{CondEst: 1e15})
	if err != nil {
		t.Fatal(err)
	}
	if o := OrthogonalityError(res.Q); o > 1e-8 {
		t.Fatalf("TSQR route lost orthogonality: %g", o)
	}
	if res.CondEst != 1e15 {
		t.Fatalf("explicit hint not recorded: %g", res.CondEst)
	}
}

// TestSolveLeastSquaresSeqPropagatesNonBreakdownErrors pins the fallback
// gate: only the ErrIllConditioned Gram breakdown retries through
// ShiftedCQR3; anything else (here a shape error) propagates verbatim.
func TestSolveLeastSquaresSeqPropagatesNonBreakdownErrors(t *testing.T) {
	wide := RandomMatrix(4, 8, 14) // m < n: a shape error, not a breakdown
	_, err := SolveLeastSquaresSeq(wide, make([]float64, 4))
	if err == nil {
		t.Fatal("wide matrix accepted")
	}
	if !errors.Is(err, lin.ErrShape) {
		t.Fatalf("err = %v, want the original lin.ErrShape", err)
	}
	if errors.Is(err, ErrIllConditioned) {
		t.Fatalf("shape error wrapped as ill-conditioning: %v", err)
	}
	// And the breakdown path still falls back (the public error value
	// is the gate callers can test themselves).
	if _, _, err := CholeskyQR2(RandomWithCond(64, 8, 1e10, 15)); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("κ=1e10 CholeskyQR2 error = %v, want ErrIllConditioned", err)
	}
}

// TestSolveWithQRNearSingularPivot pins the ε-scaled pivot tolerance: a
// denormal pivot passes an exact d == 0 test but must be rejected, not
// turned into Inf/NaN solution components.
func TestSolveWithQRNearSingularPivot(t *testing.T) {
	n := 4
	q := NewDense(n, n)
	r := NewDense(n, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
		r.Set(j, j, 1)
	}
	r.Set(n-1, n-1, 5e-324) // denormal: d == 0 is false, 1/d is +Inf
	b := []float64{1, 1, 1, 1}
	x, err := solveWithQR(q, r, b)
	if err == nil {
		t.Fatalf("denormal pivot accepted, x = %v", x)
	}
	// An exactly zero pivot still errors.
	r.Set(n-1, n-1, 0)
	if _, err := solveWithQR(q, r, b); err == nil {
		t.Fatal("zero pivot accepted")
	}
	// Healthy small-but-significant pivots still pass.
	r.Set(n-1, n-1, 1e-6)
	x, err = solveWithQR(q, r, b)
	if err != nil {
		t.Fatalf("healthy pivot rejected: %v", err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", x)
		}
	}
}

// TestFactorizeTSQRFastFailsBeforeSpinUp pins the hoisted shape check:
// an invalid m % procs must be detected before the simulated grid
// launches. The 1ns timeout makes the distinction observable — if the
// ranks had spun up, the run could only end in a timeout or rank error,
// never this clean validation message.
func TestFactorizeTSQRFastFailsBeforeSpinUp(t *testing.T) {
	a := RandomMatrix(100, 4, 16)
	before := runtime.NumGoroutine()
	_, err := FactorizePlan(a, Plan{Variant: VariantTSQR, Procs: 1 << 14}, Options{Timeout: time.Nanosecond})
	if err == nil {
		t.Fatal("m=100, P=16384 accepted")
	}
	if !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("err = %v, want the divisibility validation error", err)
	}
	if after := runtime.NumGoroutine(); after > before+64 {
		t.Fatalf("goroutines grew %d → %d: the simulated grid spun up before validation", before, after)
	}
}
