package cacqr

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cacqr/internal/core"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
	"cacqr/internal/stream"
)

// AutoGrid is the GridSpec auto mode: it asks the planner to choose the
// algorithm variant and grid over up to procs simulated ranks.
// SolveLeastSquares lets the planner choose when handed one.
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
// silently returning a low-accuracy x.
func SolveLeastSquares(a *Dense, b []float64, spec GridSpec, opts Options) ([]float64, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("cacqr: rhs length %d for %d rows", len(b), a.Rows)
	}
	var res *Result
	var err error
	switch {
	case spec.C != 0:
		res, err = factorizeCondAware(a, spec, opts)
	case spec.D < 1:
		err = fmt.Errorf("cacqr: auto grid needs a processor budget (use AutoGrid(procs))")
	default:
		res, err = autoFactorize(a, spec.D, opts)
	}
	if err != nil {
		return nil, err
	}
	return solveWithQR(res.Q, res.R, b)
}

// factorizeCondAware is the fixed-grid factorization behind
// SolveLeastSquares: the caller chose the grid, but the CholeskyQR2
// family silently loses the solution's accuracy beyond κ ≈ 10⁷, so the
// solve path must not follow the spec blindly. It estimates κ₂(A) when
// Options.CondEst is unset and keeps the requested grid while the
// predicted orthogonality holds; otherwise the reroute is handed to the
// condition-aware planner (autoFactorize) over the spec's rank budget,
// which picks the cheapest variant that survives at that κ —
// ShiftedCQR3 in its regime, TSQR beyond it. The estimate is recorded
// in Result.CondEst either way.
func factorizeCondAware(a *Dense, spec GridSpec, opts Options) (*Result, error) {
	// Describe the requested run — spec, divisibility and options all
	// checked — before measuring anything: whether an infeasible grid is
	// rejected must not depend on the matrix values steering the
	// conditioning reroute.
	j, err := newJob(a.Rows, a.Cols, spec.asPlan(opts), opts)
	if err != nil {
		return nil, err
	}
	opts.CondEst = condOrEstimate(a, opts.CondEst)
	if plan.PredictOrthogonality(plan.CACQR2, a.Rows, a.Cols, 0, opts.CondEst) > plan.DefaultOrthTol {
		return autoFactorize(a, spec.Procs(), opts)
	}
	// Inside the CQR2 regime: the requested grid.
	res, err := execute(context.Background(), j, stream.NewDenseSource(a.view()), SinkToDense())
	if err != nil {
		return nil, err
	}
	res.CondEst = opts.CondEst
	return res, nil
}

// ErrIllConditioned reports a CholeskyQR Gram/Cholesky breakdown:
// κ(A)² overflowed the precision, so the Gram matrix was not numerically
// positive definite. Every CholeskyQR driver returns it — sequential,
// 1D, batched, streamed, and on the grid FactorizeOnGrid and the
// CA-CQR2 and panel plans, over either transport — for κ ≳ 10⁷ inputs
// (route those to ShiftedCQR3 or a VariantTSQR plan). SolveLeastSquaresSeq
// falls back to the shifted variant exactly when it sees this error.
var ErrIllConditioned = core.ErrIllConditioned

// SolveLeastSquaresSeq is the sequential counterpart using CholeskyQR2,
// falling back to the shifted three-pass variant when — and only when —
// CholeskyQR2 hit the ErrIllConditioned Gram breakdown. Any other
// failure (a shape error, say) propagates verbatim; retrying it through
// ShiftedCQR3 could only mask the original message.
func SolveLeastSquaresSeq(a *Dense, b []float64) ([]float64, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
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
	// Qᵀb in one sweep over the row-major Q: every qtb[j] still sums its
	// terms in row order.
	qtb := make([]float64, n)
	for i := 0; i < q.Rows; i++ {
		for j, v := range q.Data[i*q.Cols : i*q.Cols+n] {
			qtb[j] += v * b[i]
		}
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
