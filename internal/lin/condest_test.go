package lin

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"testing"
)

// The planner's 50-iteration estimate against the two-norm condition
// number the estimator converges to in 200.
func TestEstimateCondMatchesTwoNormCond(t *testing.T) {
	a := RandomWithCond(128, 16, 1e5, 3)
	full := EstimateCond(a, 200)
	cheap := EstimateCond(a, 50)
	if math.Abs(cheap-full)/full > 0.05 {
		t.Fatalf("50-iteration estimate %g vs converged %g", cheap, full)
	}
	// Power iteration converges from below: the cheap estimate must
	// never overshoot the converged one by more than roundoff.
	if cheap > full*(1+1e-9) {
		t.Fatalf("cheap estimate %g above converged %g", cheap, full)
	}
}

func TestEstimateCondQRFallbackResolvesHighKappa(t *testing.T) {
	// κ² beyond 1/ε: the Gram route's Cholesky fails, and the estimator
	// must fall back to the Householder-QR path and still resolve κ to
	// a few percent — the condition-aware planner needs to distinguish
	// ShiftedCQR3's regime (κ ≲ 1e12) from true TSQR territory.
	for _, kappa := range []float64{1e10, 1e12, 1e14} {
		a := RandomWithCond(128, 16, kappa, 3)
		got := EstimateCond(a, 50)
		if got < kappa*0.9 || got > kappa*1.1 {
			t.Fatalf("κ=%g estimate %g", kappa, got)
		}
	}
}

func TestEstimateCondRankDeficient(t *testing.T) {
	// A rank-deficient matrix (a duplicated column) has σ_min = 0; in
	// floating point the QR fallback sees a roundoff-sized R diagonal,
	// so the estimate lands at ≳ 1/ε (or +Inf when the diagonal
	// underflows to exactly zero — the zero-matrix case below). Either
	// way it is far beyond every variant's regime, which is what the
	// routing needs.
	a := RandomMatrix(64, 8, 7)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 7, a.At(i, 0))
	}
	if got := EstimateCond(a, 50); !math.IsInf(got, 1) && got < 1e14 {
		t.Fatalf("rank-deficient estimate %g, want ≳ 1/ε or +Inf", got)
	}
}

func TestEstimateCondDegenerateInputs(t *testing.T) {
	if got := EstimateCond(NewMatrix(0, 0), 10); got != 0 {
		t.Fatalf("empty matrix estimate %g", got)
	}
	// Iteration floor: even iters < 1 must produce a finite positive
	// estimate for a well-conditioned matrix.
	a := RandomWithCond(64, 8, 10, 5)
	if got := EstimateCond(a, 0); got < 1 || math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("iters=0 estimate %g", got)
	}
	// The zero matrix has a zero Gram: Cholesky fails, κ = +Inf.
	if got := EstimateCond(NewMatrix(16, 4), 10); !math.IsInf(got, 1) {
		t.Fatalf("zero matrix estimate %g, want +Inf", got)
	}
}

func TestEstimateCondAcrossTheGramCeiling(t *testing.T) {
	// Between ε^{-1/2}/10 and ε^{-1/2} the Gram's Cholesky factor may or
	// may not break down, and when it does not its smallest eigenvalue
	// is mostly rounding: the estimate must come from the QR route
	// either way, never from luck.
	for _, kappa := range []float64{5e6, 3e7, 1e8, 3e8} {
		for seed := int64(1); seed <= 6; seed++ {
			a := RandomWithCond(192, 24, kappa, seed)
			if got := EstimateCond(a, 50); got < kappa*0.9 || got > kappa*1.1 {
				t.Errorf("κ=%g seed %d: estimate %g", kappa, seed, got)
			}
		}
	}
}
