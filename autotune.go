package cacqr

import (
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

// The planner's algorithm variants. A Plan names one with its extents,
// and FactorizePlan runs it: FactorizePlan(a, Plan{Variant: VariantTSQR,
// Procs: 4}, opts). The grid variants name C and D; Check derives Procs.
const (
	// VariantCACQR2 is the paper's CA-CQR2 on a C × D × C grid
	// (FactorizeOnGrid's run; requires D | m and C | n). C = 1 is 1D-CQR2
	// (Algorithm 7) on D ranks, each owning m/D cyclic rows: the
	// planner's tall-skinny regime, where replication buys nothing and
	// the whole Gram matrix fits one rank. C = D = 1 is the sequential
	// CholeskyQR2 with measured cost accounting, bitwise equal to
	// CholeskyQR2.
	VariantCACQR2 = plan.CACQR2
	// VariantPanelCACQR2 is the §V panel-wise CA-CQR2: columns in panels
	// of PanelWidth, cutting the flop overhead for near-square matrices.
	// Requires C | PanelWidth and PanelWidth | n.
	VariantPanelCACQR2 = plan.PanelCACQR2
	// VariantTSQR is the binary-tree TSQR baseline on Procs ranks, which
	// must be a power of two. It is unconditionally stable — the right
	// tool when κ(A) exceeds CholeskyQR2's ~1/√ε regime — at the price of
	// a log P critical path of small factorizations. PanelWidth > 0
	// selects the blocked variant, which only needs m/Procs ≥ PanelWidth
	// instead of m/Procs ≥ n.
	VariantTSQR = plan.TSQR
	// VariantShiftedCQR3 is the distributed shifted CholeskyQR3 (one
	// CA-CQR pass on the shifted Gram matrix, then CA-CQR2) on a
	// C × D × C grid, with CA-CQR2's layout and requirements; C = D = 1
	// is ShiftedCQR3 with measured cost accounting, bitwise equal to
	// ShiftedCQR3. It stays stable to κ(A) ≈ 1/ε — far beyond
	// CholeskyQR2's ~ε^{-1/2} regime — at ~1.5× the flops, and is what
	// the condition-aware planner dispatches for ill-conditioned tall
	// inputs.
	VariantShiftedCQR3 = plan.ShiftedCQR3
	// VariantPGEQRF is the ScaLAPACK-style 2D Householder baseline on a
	// D × C (pr × pc) process grid with block size nb = PanelWidth
	// (requires pr | m, nb | n). The reflectors are turned into the explicit
	// reduced Q by applying them to the distributed identity (the PDORGQR
	// pattern), and signs are normalized so R has a non-negative
	// diagonal. Its measured Stats include that explicit-Q formation, the
	// n×n Allreduce that replicates R and the gather of Q on rank 0 from
	// process column 0, which the cost model's PGEQRF row (factorization
	// only, the paper's comparison object) deliberately does not price:
	// unlike the CQR-family rows, measured cost exceeds the row's Cost
	// by that output work.
	VariantPGEQRF = plan.PGEQRF
	// VariantStreamCQR2 is the out-of-core CholeskyQR2 on one rank over
	// row panels of PanelWidth rows (FactorizeStreaming's run).
	VariantStreamCQR2 = plan.StreamCQR2
)

// condEstIters bounds the power-iteration condition estimator run when
// no κ hint was given: one n×n Gram SYRK plus O(iters·n²) matvec work
// (≈ 0.25 ms on 1024×128 on a 2-vCPU Xeon). Past κ ≈ 10⁸ the Gram
// Cholesky fails and a blocked Householder QR of A is added: ≈ 7 ms on
// the same shape, about half the 15 ms ShiftedCQR3 run that follows.
const condEstIters = 50

// condOrEstimate resolves the routing hint: the caller's κ₂(A), or —
// when that is unset — the power-iteration estimate measured from a.
func condOrEstimate(a *Dense, hint float64) float64 {
	//lint:ignore floatcompare 0 is the unset sentinel for CondEst, never a computed estimate
	if hint == 0 {
		return lin.EstimateCond(a.view(), condEstIters)
	}
	return hint
}

// planRequest checks the public knobs and the shape and translates them
// into a planner request.
func planRequest(m, n, procs int, opts Options) (plan.Request, error) {
	if err := checkOptions(opts); err != nil {
		return plan.Request{}, err
	}
	if err := checkShape(m, n); err != nil {
		return plan.Request{}, err
	}
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
	return req, nil
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
// formation before the gather (see VariantPGEQRF), which shows up in
// measured Stats but is not priced, so the exact measured == predicted
// + gather contract holds for the CQR-family and TSQR rows, not PGEQRF.
func PlanGrid(m, n, procs int, opts Options) ([]Plan, error) {
	req, err := planRequest(m, n, procs, opts)
	if err != nil {
		return nil, err
	}
	return plan.Enumerate(req)
}

// AutoFactorize factors A = Q·R on up to procs simulated ranks, letting
// the planner choose the algorithm variant and grid: it ranks every
// feasible candidate with the validated cost model and executes the
// winner (CA-CQR2 on its c×d×c grid — at c = 1 the 1D algorithm, on
// one rank the sequential one — the panel variant, ShiftedCQR3, or the
// TSQR fallback for extreme shapes).
// The choice is condition-aware: Options.CondEst — or, when unset, a
// cheap power-iteration estimate of κ₂(A) measured from the matrix —
// gates out variants that would lose orthogonality at that conditioning
// (κ ≳ 10⁷ leaves the plain CholeskyQR2 family for ShiftedCQR3/TSQR).
// The executed plan is recorded in Result.Plan and the routing hint in
// Result.CondEst. InverseDepth and BaseSize are what every grid row is
// priced with, and the winner runs the ones it carries.
func AutoFactorize(a *Dense, procs int, opts Options) (*Result, error) {
	return autoFactorize(a, procs, opts)
}

// autoFactorize is the body of AutoFactorize, shared with the solve
// path's reroute: validate, measure κ if no hint came, plan, execute the
// winner.
func autoFactorize(a *Dense, procs int, opts Options) (*Result, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	req, err := planRequest(a.Rows, a.Cols, procs, opts)
	if err != nil {
		return nil, err
	}
	req.CondEst = condOrEstimate(a, opts.CondEst)
	best, err := plan.Best(req)
	if err != nil {
		return nil, err
	}
	opts.CondEst = req.CondEst
	res, err := factorize(a, best, opts)
	if err != nil {
		return nil, err
	}
	res.Plan, res.CondEst = &best, req.CondEst
	return res, nil
}

// FactorizePlan executes one plan — a row of PlanGrid, a cached plan
// reused across same-shaped matrices, or one built by hand (Variant and
// its extents suffice; each Variant constant lists what it requires) —
// without running the enumeration. Every variant the planner prices is
// executable, including the PGEQRF baseline and the blocked
// (PanelWidth > 0) TSQR rows; the plan's extents are checked against
// the matrix before anything runs. The run executes the knobs
// the row was priced with — its own PanelWidth, InverseDepth and
// BaseSize, not those of opts — so measured cost equals the row's Cost
// (plus the final gather). The executed plan is recorded in Result.Plan.
func FactorizePlan(a *Dense, p Plan, opts Options) (*Result, error) {
	res, err := factorize(a, p, opts)
	if err != nil {
		return nil, err
	}
	res.Plan = &p
	return res, nil
}
