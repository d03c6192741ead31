package cacqr

import (
	"fmt"
	"math"

	"cacqr/internal/lin"
	"cacqr/internal/plan"
)

// Plan is one priced candidate from the autotuning planner: an algorithm
// variant, its grid, the modeled α-β-γ cost and per-rank memory
// footprint, the predicted time on the planning machine, and a
// human-readable rationale.
type Plan = plan.Plan

// Variant names an algorithm the planner can select.
type Variant = plan.Variant

// The planner's algorithm variants.
const (
	VariantSequential  = plan.Sequential
	Variant1DCQR2      = plan.OneD
	VariantCACQR2      = plan.CACQR2
	VariantPanelCACQR2 = plan.PanelCACQR2
	VariantTSQR        = plan.TSQR
	VariantShiftedCQR3 = plan.ShiftedCQR3
	VariantPGEQRF      = plan.PGEQRF
	VariantStreamCQR2  = plan.StreamCQR2
)

// condEstIters bounds the power-iteration condition estimator
// AutoFactorize runs when Options.CondEst is unset: one n×n Gram SYRK
// plus O(iters·n²) matvec work — cheap next to the 4mn² factorization
// that follows.
const condEstIters = 50

// planRequest translates the public knobs into a planner request.
func planRequest(m, n, procs int, opts Options) plan.Request {
	req := plan.Request{
		M: m, N: n, Procs: procs,
		MemBudget:        opts.MemBudget,
		InverseDepth:     opts.InverseDepth,
		BaseSize:         opts.BaseSize,
		IncludeBaselines: opts.IncludeBaselines,
		CondEst:          opts.CondEst,
	}
	if opts.PlanMachine != nil {
		req.Machine = *opts.PlanMachine
	}
	return req
}

// PlanGrid enumerates every feasible algorithm variant and grid for an
// m×n matrix on up to procs simulated ranks and returns them ranked by
// predicted time under the planning machine (Options.PlanMachine, nil =
// Stampede2). Options.MemBudget, when > 0, rejects plans whose modeled
// per-rank footprint exceeds that many bytes; Options.CondEst, when
// set, rejects variants whose predicted ‖QᵀQ−I‖ at that κ exceeds 1e-8
// (PlanGrid never sees the matrix, so an unset hint means "assume
// well-conditioned" — AutoFactorize is the entry point that estimates
// it for you). The cost predictions are the same validated recurrences
// the simulated runtime is tested against, so the winning plan's Cost
// is what a run will actually charge (plus the final gather). Every
// returned row — the PGEQRF baseline and blocked-TSQR rows included —
// is executable via FactorizePlan. One caveat on the baseline: the
// PGEQRF row's Cost models the factorization only (the object the
// paper compares against); executing it also pays the explicit-Q
// output path (see FactorizePGEQRF), which shows up in measured Stats
// but is not priced, so the exact measured == predicted + gather
// contract holds for the CQR-family and TSQR rows, not PGEQRF.
func PlanGrid(m, n, procs int, opts Options) ([]Plan, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	return plan.Enumerate(planRequest(m, n, procs, opts))
}

// AutoFactorize factors A = Q·R on up to procs simulated ranks, letting
// the planner choose the algorithm variant and grid: it ranks every
// feasible candidate with the validated cost model and dispatches to
// the winner (CA-CQR2 on its c×d×c grid, the panel variant, 1D-CQR2,
// sequential, ShiftedCQR3, or the TSQR fallback for extreme shapes).
// The choice is condition-aware: Options.CondEst — or, when unset, a
// cheap power-iteration estimate of κ₂(A) measured from the matrix —
// gates out variants that would lose orthogonality at that conditioning
// (κ ≳ 10⁷ leaves the plain CholeskyQR2 family for ShiftedCQR3/TSQR).
// The executed plan is recorded in Result.Plan and the routing hint in
// Result.CondEst. Options.PanelWidth is ignored — the planner owns that
// choice; InverseDepth and BaseSize are forwarded to both the model and
// the run.
func AutoFactorize(a *Dense, procs int, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	//lint:ignore floatcompare 0 is the unset sentinel for CondEst, never a computed estimate
	if opts.CondEst == 0 {
		opts.CondEst = lin.EstimateCond(a.view(), condEstIters)
	}
	best, err := plan.Best(planRequest(a.Rows, a.Cols, procs, opts))
	if err != nil {
		return nil, err
	}
	res, err := FactorizePlan(a, best, opts)
	if err != nil {
		return nil, err
	}
	res.CondEst = opts.CondEst
	return res, nil
}

// FactorizePlan executes one planner-produced plan (from PlanGrid)
// without re-running the enumeration — the path for callers that want
// to inspect or re-rank the candidate list before committing, or to
// reuse a cached plan across same-shaped matrices. Every variant the
// planner prices is dispatchable here, including the PGEQRF baseline
// and the blocked (panelWidth > 0) TSQR rows. The executed plan is
// recorded in Result.Plan.
func FactorizePlan(a *Dense, p Plan, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	res, err := dispatch(a, p, opts)
	if err != nil {
		return nil, err
	}
	res.Plan = &p
	return res, nil
}

// dispatch executes a planner-selected variant.
func dispatch(a *Dense, p Plan, opts Options) (*Result, error) {
	opts.PanelWidth = 0
	switch p.Variant {
	case plan.Sequential:
		return Factorize1D(a, 1, opts)
	case plan.OneD:
		return Factorize1D(a, p.Procs, opts)
	case plan.ShiftedCQR3:
		return FactorizeShifted1D(a, p.Procs, opts)
	case plan.CACQR2:
		return FactorizeOnGrid(a, GridSpec{C: p.C, D: p.D}, opts)
	case plan.PanelCACQR2:
		opts.PanelWidth = p.PanelWidth
		return FactorizeOnGrid(a, GridSpec{C: p.C, D: p.D}, opts)
	case plan.TSQR:
		return FactorizeTSQR(a, p.Procs, p.PanelWidth, opts)
	case plan.PGEQRF:
		return FactorizePGEQRF(a, p.D, p.C, p.PanelWidth, opts)
	case plan.StreamCQR2:
		// Out-of-core dispatch for an already-in-memory matrix: stream it
		// panel by panel anyway, so peak *additional* memory stays at the
		// read-ahead buffers plus O(n²) and the budget the planner honored
		// is respected by the execution too.
		opts.PanelRows = p.PanelWidth
		sink := SinkToDense()
		res, err := FactorizeStreaming(SourceFromDense(a), sink, opts)
		if err != nil {
			return nil, err
		}
		return res, nil
	default:
		return nil, fmt.Errorf("cacqr: plan variant %q is not executable", p.Variant)
	}
}

// checkOptions rejects malformed knobs up front — a negative Workers
// count or a negative/NaN condition estimate. Every simulated entry
// point shares this validation, so misuse is an error, never a panic.
// An unset CondEst (0) is valid: AutoFactorize responds by measuring a
// cheap power-iteration estimate from the matrix itself.
func checkOptions(opts Options) error {
	if opts.Workers < 0 {
		return fmt.Errorf("cacqr: negative Workers %d (0 = per-rank serial)", opts.Workers)
	}
	if math.IsNaN(opts.CondEst) || opts.CondEst < 0 {
		return fmt.Errorf("cacqr: invalid CondEst %g (want ≥ 0; 0 = let AutoFactorize estimate it)", opts.CondEst)
	}
	if opts.PanelRows < 0 {
		return fmt.Errorf("cacqr: negative PanelRows %d (0 = default)", opts.PanelRows)
	}
	return nil
}
