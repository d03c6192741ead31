package cacqr

import (
	"errors"
	"fmt"
	"math"

	"cacqr/internal/core"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

// AutoGrid is the GridSpec auto mode: it asks the planner to choose the
// algorithm variant and grid over up to procs simulated ranks.
// SolveLeastSquares dispatches through AutoFactorize when handed one.
func AutoGrid(procs int) GridSpec { return GridSpec{C: 0, D: procs} }

// SolveLeastSquares solves the overdetermined least-squares problem
// min ‖A·x − b‖₂ for an m×n matrix A (m ≥ n, full rank) by factoring A
// on the given simulated grid and back-substituting x = R⁻¹·Qᵀ·b. This
// is the workload the paper's introduction motivates: very
// overdetermined systems in many variables.
//
// A spec with C == 0 (see AutoGrid) selects the auto mode: the planner
// ranks every feasible variant and grid for up to spec.D ranks under
// Options.MemBudget / Options.PlanMachine and the winner is executed.
//
// Both modes are condition-aware. On a fixed grid, Options.CondEst — or,
// when unset, the same power-iteration estimate AutoFactorize makes —
// gates the CholeskyQR2 path: an input beyond its κ ≈ 10⁷ regime is
// rerouted to the shifted three-pass variant (or, past its regime too,
// to TSQR) on a 1D grid within the spec's rank budget, instead of
// silently returning a low-accuracy x. The estimate and the executed
// route are recorded in the underlying Result (surfaced by
// Server.Submit).
func SolveLeastSquares(a *Dense, b []float64, spec GridSpec, opts Options) ([]float64, error) {
	x, _, err := solveLeastSquares(a, b, spec, opts)
	return x, err
}

// solveLeastSquares is the shared body of SolveLeastSquares and the
// serving layer's solve path: it additionally returns the factorization
// Result so callers can see the plan, the measured costs, and the
// condition estimate the routing used.
func solveLeastSquares(a *Dense, b []float64, spec GridSpec, opts Options) ([]float64, *Result, error) {
	if len(b) != a.Rows {
		return nil, nil, fmt.Errorf("cacqr: rhs length %d for %d rows", len(b), a.Rows)
	}
	var res *Result
	var err error
	if spec.C == 0 {
		if spec.D < 1 {
			return nil, nil, fmt.Errorf("cacqr: auto grid needs a processor budget (use AutoGrid(procs))")
		}
		res, err = AutoFactorize(a, spec.D, opts)
	} else {
		res, err = factorizeFixedCondAware(a, spec, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	x, err := solveWithQR(res.Q, res.R, b)
	if err != nil {
		return nil, nil, err
	}
	return x, res, nil
}

// factorizeFixedCondAware is the fixed-grid factorization behind
// SolveLeastSquares: the caller chose the grid, but the CholeskyQR2
// family silently loses the solution's accuracy beyond κ ≈ 10⁷, so the
// solve path must not follow the spec blindly. It estimates κ₂(A) when
// Options.CondEst is unset and keeps the requested grid while the
// predicted orthogonality holds; otherwise the reroute is handed to the
// condition-aware planner (AutoFactorize) over the spec's rank budget,
// which picks the cheapest variant that survives at that κ —
// ShiftedCQR3 in its regime, TSQR beyond it. The estimate is recorded
// in Result.CondEst either way.
func factorizeFixedCondAware(a *Dense, spec GridSpec, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	// Validate the spec — shape divisibility included — before measuring
	// anything: whether an infeasible grid is rejected must not depend
	// on the matrix values steering the conditioning reroute.
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m, n := a.Rows, a.Cols
	if m%spec.D != 0 || n%spec.C != 0 {
		return nil, fmt.Errorf("cacqr: %dx%d matrix not divisible by the %dx%dx%d grid (need d | m, c | n)",
			m, n, spec.C, spec.D, spec.C)
	}
	cond := opts.CondEst
	//lint:ignore floatcompare 0 is the unset sentinel for CondEst, never a computed estimate
	if cond == 0 {
		cond = lin.EstimateCond(a.view(), condEstIters)
	}
	if plan.PredictOrthogonality(plan.CACQR2, m, n, 0, cond) <= plan.DefaultOrthTol {
		// Inside the CQR2 regime: the requested grid as before.
		res, err := FactorizeOnGrid(a, spec, opts)
		if err != nil {
			return nil, err
		}
		res.CondEst = cond
		return res, nil
	}
	opts.CondEst = cond
	return AutoFactorize(a, spec.Procs(), opts)
}

// ErrIllConditioned reports a CholeskyQR Gram/Cholesky breakdown:
// κ(A)² overflowed the precision, so the Gram matrix was not numerically
// positive definite. CholeskyQR2 returns it for κ ≳ 10⁷ inputs (route
// those to ShiftedCQR3 or FactorizeTSQR); SolveLeastSquaresSeq falls
// back to the shifted variant exactly when it sees this error.
var ErrIllConditioned = core.ErrIllConditioned

// SolveLeastSquaresSeq is the sequential counterpart using CholeskyQR2,
// falling back to the shifted three-pass variant when — and only when —
// CholeskyQR2 hit the ErrIllConditioned Gram breakdown. Any other
// failure (a shape error, say) propagates verbatim; retrying it through
// ShiftedCQR3 could only mask the original message.
func SolveLeastSquaresSeq(a *Dense, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("cacqr: rhs length %d for %d rows", len(b), a.Rows)
	}
	q, r, err := CholeskyQR2(a)
	if errors.Is(err, ErrIllConditioned) {
		q, r, err = ShiftedCQR3(a)
	}
	if err != nil {
		return nil, err
	}
	return solveWithQR(q, r, b)
}

// solveWithQR computes x = R⁻¹·Qᵀ·b by projection and back substitution.
// Pivots are checked against an ε-scaled tolerance relative to the
// largest diagonal magnitude, not exact zero: a denormal R_jj would pass
// a d == 0 test and flood x with Inf/NaN, when the honest answer is that
// the system is numerically rank-deficient.
func solveWithQR(q, r *Dense, b []float64) ([]float64, error) {
	n := r.Cols
	var maxDiag float64
	for j := 0; j < n; j++ {
		if d := math.Abs(r.At(j, j)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := float64(n) * lin.Eps * maxDiag
	qtb := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < q.Rows; i++ {
			s += q.At(i, j) * b[i]
		}
		qtb[j] = s
	}
	x := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		s := qtb[j]
		for k := j + 1; k < n; k++ {
			s -= r.At(j, k) * x[k]
		}
		d := r.At(j, j)
		if math.Abs(d) <= tol {
			return nil, fmt.Errorf("cacqr: numerically rank-deficient system (pivot %g at %d, tolerance %g)", d, j, tol)
		}
		x[j] = s / d
	}
	return x, nil
}
