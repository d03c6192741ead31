package plan

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"math"
	"strings"
	"testing"

	"cacqr/internal/lin"
)

// Condition-aware routing tests: the planner must move κ ≳ 10⁷ inputs
// off the plain CholeskyQR2 family (whose Gram matrix squares κ) and
// onto ShiftedCQR3 or the Householder-based variants, per the κ-sweep
// property tests in internal/core that establish where each variant
// actually holds up.

func isCQR2Family(v Variant) bool {
	switch v {
	case CACQR2, PanelCACQR2:
		return true
	}
	return false
}

func TestCondSweepRouting(t *testing.T) {
	// At every κ of the standard sweep, the winner must be a variant
	// whose predicted orthogonality meets the tolerance — CQR2-family
	// below the ε^{-1/2} threshold, ShiftedCQR3/TSQR above it.
	const m, n, procs = 1024, 64, 16
	for _, kappa := range []float64{1e2, 1e5, 1e8, 1e12, 1e15} {
		best, err := Best(Request{M: m, N: n, Procs: procs, CondEst: kappa})
		if err != nil {
			t.Fatalf("κ=%g: %v", kappa, err)
		}
		if kappa <= 1e5 {
			if !isCQR2Family(best.Variant) {
				t.Fatalf("κ=%g: well-conditioned input routed to %v", kappa, best)
			}
		} else {
			if isCQR2Family(best.Variant) {
				t.Fatalf("κ=%g: ill-conditioned input routed to the CQR2 family: %v", kappa, best)
			}
		}
		if best.PredOrth > DefaultOrthTol {
			t.Fatalf("κ=%g: winner predicts orth %g over tolerance: %v", kappa, best.PredOrth, best)
		}
	}
}

func TestCondRoutingThresholds(t *testing.T) {
	const m, n, procs = 1024, 64, 16
	// κ=1e10: inside ShiftedCQR3's regime and cheaper than TSQR — the
	// shifted variant must win outright.
	best, err := Best(Request{M: m, N: n, Procs: procs, CondEst: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if best.Variant != ShiftedCQR3 {
		t.Fatalf("κ=1e10 chose %v, want shifted-cqr3", best)
	}
	// κ=1e15: beyond one-shift territory at this shape — only the
	// Householder-based variants survive the gate.
	best, err = Best(Request{M: m, N: n, Procs: procs, CondEst: 1e15})
	if err != nil {
		t.Fatal(err)
	}
	if best.Variant != TSQR {
		t.Fatalf("κ=1e15 chose %v, want tsqr", best)
	}
	// No hint: every variant competes on time alone, exactly as before
	// this planner became condition-aware.
	unhinted, err := Best(Request{M: m, N: n, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	hinted1, err := Best(Request{M: m, N: n, Procs: procs, CondEst: 1})
	if err != nil {
		t.Fatal(err)
	}
	if unhinted.Variant != hinted1.Variant || unhinted.Seconds != hinted1.Seconds {
		t.Fatalf("κ=1 (%v) diverges from no hint (%v)", hinted1, unhinted)
	}
}

func TestCondGateUsesEstimatorMeasurement(t *testing.T) {
	// The intended composition: measure κ from a generated matrix with
	// the cheap estimator, feed it to the planner, and land off the
	// CQR2 family — no hand-chosen CondEst anywhere.
	const m, n = 256, 32
	a := lin.RandomWithCond(m, n, 1e9, 21)
	est := lin.EstimateCond(a, 50)
	if est < 1e7 {
		t.Fatalf("estimator missed the ill-conditioning: %g", est)
	}
	best, err := Best(Request{M: m, N: n, Procs: 8, CondEst: est})
	if err != nil {
		t.Fatal(err)
	}
	if isCQR2Family(best.Variant) {
		t.Fatalf("estimated κ=%g still routed to %v", est, best)
	}
}

func TestCondEstValidation(t *testing.T) {
	if _, err := Enumerate(Request{M: 64, N: 8, Procs: 4, CondEst: -1}); err == nil {
		t.Fatal("negative CondEst accepted")
	}
	if _, err := Enumerate(Request{M: 64, N: 8, Procs: 4, CondEst: math.NaN()}); err == nil {
		t.Fatal("NaN CondEst accepted")
	}
	// +Inf is a legitimate estimator outcome (numerically singular
	// Gram): it must route to the unconditionally stable variants, not
	// error.
	best, err := Best(Request{M: 1024, N: 64, Procs: 16, CondEst: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if best.Variant != TSQR && best.Variant != PGEQRF {
		t.Fatalf("κ=+Inf chose %v", best)
	}
}

func TestCondGateCanRejectEverything(t *testing.T) {
	// A processor budget of 1 has no Householder-based candidate (TSQR
	// needs p ≥ 2), so an extreme κ leaves nothing — and the error must
	// say why.
	_, err := Enumerate(Request{M: 64, N: 8, Procs: 1, CondEst: 1e15})
	if err == nil {
		t.Fatal("impossible tolerance satisfied")
	}
	if !strings.Contains(err.Error(), "QᵀQ") {
		t.Fatalf("unhelpful gating error: %v", err)
	}
}

func TestPredictOrthogonalityShape(t *testing.T) {
	// Monotone in κ, unconditionally small for the Householder family,
	// and the shifted gate widens the regime by orders of magnitude.
	for _, v := range []Variant{CACQR2, PanelCACQR2, ShiftedCQR3, TSQR, PGEQRF} {
		prev := 0.0
		for _, k := range []float64{1, 1e4, 1e8, 1e12, 1e16} {
			o := PredictOrthogonality(v, 1024, 64, 0, k)
			if o < prev {
				t.Fatalf("%s: prediction not monotone at κ=%g", v, k)
			}
			prev = o
		}
	}
	if o := PredictOrthogonality(TSQR, 1024, 64, 0, 1e16); o > 1e-13 {
		t.Fatalf("TSQR predicted %g at κ=1e16", o)
	}
	if o := PredictOrthogonality(CACQR2, 1024, 64, 0, 1e10); o < 1 {
		t.Fatalf("CQR2 family predicted %g at κ=1e10, want breakdown", o)
	}
	if o := PredictOrthogonality(ShiftedCQR3, 1024, 64, 0, 1e10); o > 1e-12 {
		t.Fatalf("ShiftedCQR3 predicted %g at κ=1e10", o)
	}
}

func TestCQR2Breaks(t *testing.T) {
	for _, tc := range []struct {
		cond   float64
		breaks bool
	}{
		{0, false}, // "unknown"
		{1, false},
		{1e3, false},
		{1<<23 - 1, false},
		{1 << 23, true}, // κ²ε = 1/64 exactly
		{1e8, true},     // beyond the 1/√ε threshold
		{math.Inf(1), true},
		{math.NaN(), false}, // no estimate is not a reason to shift
	} {
		if got := CQR2Breaks(tc.cond); got != tc.breaks {
			t.Errorf("CQR2Breaks(%g) = %v, want %v", tc.cond, got, tc.breaks)
		}
	}
}

func TestBlockedTSQRGatedByBGS2Bound(t *testing.T) {
	// The blocked variant's BGS2 updates lose orthogonality as O(ε·κ)
	// — measured e2e at ~5e-11 for κ=1e12 — so unlike the plain tree it
	// must NOT survive the gate at high κ. 256×64 on 8 ranks has
	// blocked rows (m/p = 32 < n) and plain rows (p ≤ 4).
	if o := PredictOrthogonality(TSQR, 256, 64, 16, 1e12); o < 1e-8 {
		t.Fatalf("blocked TSQR predicted %g at κ=1e12, want ≳ ε·κ", o)
	}
	if o := PredictOrthogonality(TSQR, 256, 64, 16, 1e3); o > 1e-12 {
		t.Fatalf("blocked TSQR predicted %g at κ=1e3", o)
	}
	plans, err := Enumerate(Request{M: 256, N: 64, Procs: 8, CondEst: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Variant == TSQR && p.PanelWidth > 0 {
			t.Fatalf("blocked TSQR row survived the κ=1e12 gate: %v", p)
		}
	}
}

func TestBlockedTSQRRowsOnlyWherePlainInfeasible(t *testing.T) {
	// 256×64 on 8 ranks: plain TSQR feasible at p ∈ {2, 4} (m/p ≥ n)
	// but not p = 8 (m/p = 32 < 64) — blocked rows must appear exactly
	// there, with b | n and b ≤ m/p.
	plans, err := Enumerate(Request{M: 256, N: 64, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	sawBlocked := false
	for _, p := range plans {
		if p.Variant != TSQR {
			continue
		}
		if p.PanelWidth == 0 {
			if 256/p.Procs < 64 {
				t.Fatalf("plain TSQR row with short local blocks: %v", p)
			}
			continue
		}
		sawBlocked = true
		if p.Procs != 8 {
			t.Fatalf("blocked row where plain is feasible: %v", p)
		}
		if 64%p.PanelWidth != 0 || p.PanelWidth > 256/p.Procs {
			t.Fatalf("infeasible blocked row: %v", p)
		}
	}
	if !sawBlocked {
		t.Fatal("no blocked TSQR rows at the shape built for them")
	}
}
