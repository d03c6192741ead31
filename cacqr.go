// Package cacqr is the public API of the CA-CQR2 reproduction: scalable
// CholeskyQR2 factorization of tall rectangular matrices, after
//
//	E. Hutter and E. Solomonik, "Communication-avoiding CholeskyQR2 for
//	rectangular matrices", IPDPS 2019 (arXiv:1710.08471).
//
// The package offers three layers:
//
//   - Sequential factorizations (CholeskyQR2, ShiftedCQR3, HouseholderQR)
//     for direct use on dense matrices.
//   - FactorizeOnGrid, which executes the paper's CA-CQR2 algorithm over
//     a simulated c × d × c processor grid (goroutine ranks with exact
//     α-β-γ cost accounting) and reports both the factors and the
//     measured per-processor communication/computation costs.
//   - The validated cost model (Model* functions and Machine values) for
//     predicting performance at supercomputer scale.
package cacqr

import (
	"context"
	"fmt"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
)

// Dense is a row-major dense matrix, the package's public exchange type.
type Dense struct {
	Rows, Cols int
	Data       []float64 // length Rows*Cols, row-major
}

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromData wraps row-major data (copied) in a Dense.
func FromData(r, c int, data []float64) (*Dense, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("cacqr: %d values for a %dx%d matrix", len(data), r, c)
	}
	d := NewDense(r, c)
	copy(d.Data, data)
	return d, nil
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// toLin copies d into a lin.Matrix the callee may keep or modify.
func (d *Dense) toLin() *lin.Matrix { return lin.FromSlice(d.Rows, d.Cols, d.Data) }

// view wraps d's storage in a lin.Matrix without copying, for callees
// that only read it and do not retain it.
func (d *Dense) view() *lin.Matrix {
	return &lin.Matrix{Rows: d.Rows, Cols: d.Cols, Stride: d.Cols, Data: d.Data}
}

// fromLin hands a freshly computed lin.Matrix to the caller as a Dense.
// Compact storage is adopted, not copied; only a strided view is copied.
func fromLin(m *lin.Matrix) *Dense {
	if m.Stride != m.Cols {
		m = m.Clone()
	}
	return &Dense{Rows: m.Rows, Cols: m.Cols, Data: m.Data[:m.Rows*m.Cols]}
}

// CholeskyQR2 computes the reduced QR factorization A = Q·R by two
// CholeskyQR passes. Q has orthonormal columns to machine precision when
// κ(A) ≲ 10⁷; beyond that it returns an error (use ShiftedCQR3).
func CholeskyQR2(a *Dense) (q, r *Dense, err error) {
	ql, rl, err := core.CholeskyQR2(a.view(), 0)
	if err != nil {
		return nil, nil, err
	}
	return fromLin(ql), fromLin(rl), nil
}

// ShiftedCQR3 is the unconditionally stable three-pass variant: a shifted
// CholeskyQR pass followed by CholeskyQR2.
func ShiftedCQR3(a *Dense) (q, r *Dense, err error) {
	ql, rl, err := core.ShiftedCQR3(a.view(), 0)
	if err != nil {
		return nil, nil, err
	}
	return fromLin(ql), fromLin(rl), nil
}

// HouseholderQR is the classical reference factorization.
func HouseholderQR(a *Dense) (q, r *Dense, err error) {
	ql, rl, err := lin.QR(a.view())
	if err != nil {
		return nil, nil, err
	}
	return fromLin(ql), fromLin(rl), nil
}

// OrthogonalityError returns ‖QᵀQ − I‖_F.
func OrthogonalityError(q *Dense) float64 { return lin.OrthogonalityError(q.view()) }

// ResidualNorm returns ‖A − Q·R‖_F / ‖A‖_F.
func ResidualNorm(a, q, r *Dense) float64 {
	return lin.ResidualNorm(a.view(), q.view(), r.view())
}

// EstimateCondition returns a cheap power-iteration estimate of κ₂(A) —
// the same measurement AutoFactorize makes when Options.CondEst is
// unset. The well-conditioned path costs one n×n Gram SYRK plus a few
// dozen n² matvecs; when κ ≳ ε^{-1/2} saturates that route, a
// Householder-QR fallback (2mn², paid only on ill-conditioned inputs)
// resolves κ up to ~1/ε, so the planner can still tell ShiftedCQR3's
// regime from true TSQR territory. The estimate converges from below;
// +Inf means numerically rank-deficient.
func EstimateCondition(a *Dense) float64 {
	return lin.EstimateCond(a.view(), condEstIters)
}

// RandomMatrix returns a deterministic random m×n test matrix.
func RandomMatrix(m, n int, seed int64) *Dense {
	return fromLin(lin.RandomMatrix(m, n, seed))
}

// RandomWithCond returns an m×n matrix with 2-norm condition number cond.
func RandomWithCond(m, n int, cond float64, seed int64) *Dense {
	return fromLin(lin.RandomWithCond(m, n, cond, seed))
}

// GridSpec selects the paper's tunable c × d × c processor grid
// (P = c·d·c ranks). C = 1 recovers the 1D algorithm; C = D is the 3D
// algorithm.
type GridSpec struct {
	C, D int
}

// Procs returns the rank count of the grid.
func (g GridSpec) Procs() int { return g.C * g.D * g.C }

// validate rejects infeasible grids — the shared check behind every
// entry point that takes an explicit spec.
func (g GridSpec) validate() error {
	if g.C < 1 || g.D < g.C || g.D%g.C != 0 {
		return fmt.Errorf("cacqr: invalid grid %dx%dx%d (need 1 ≤ c ≤ d, c | d)", g.C, g.D, g.C)
	}
	return nil
}

// Options tune the factorization like the paper's experiment legends.
type Options struct {
	// InverseDepth is the number of top CFR3D recursion levels that skip
	// the explicit triangular-inverse block (0 = full inverse).
	InverseDepth int
	// BaseSize is CFR3D's base-case dimension n_o (0 = the
	// bandwidth-optimal default n/c²).
	BaseSize int
	// PanelWidth, when > 0, selects the panel-wise variant (the paper's
	// §V subpanel proposal): columns are processed in panels of this
	// width, cutting the flop overhead for near-square matrices.
	// Requires c | PanelWidth and PanelWidth | n.
	PanelWidth int
	// Timeout bounds the simulated run's wall-clock time (0 = 10min).
	Timeout time.Duration
	// Workers bounds the goroutines each simulated rank's local level-3
	// kernels may use on top of the rank's own goroutine. The default of
	// 0 means 1 (serial per rank): a simulated grid already runs P
	// goroutines, so extra fan-out only helps when the grid is small and
	// the per-rank blocks are large. Factors and measured costs are
	// identical for any value — Workers trades wall-clock only.
	//
	// The sequential entry points (CholeskyQR2, ShiftedCQR3, Solve) do
	// not consult Options; they always use all of GOMAXPROCS.
	// Negative values are rejected with an error.
	Workers int
	// MemBudget bounds the planner's modeled per-rank memory footprint
	// in bytes (0 = unlimited). Consulted only by PlanGrid,
	// AutoFactorize, and the auto mode of SolveLeastSquares; the
	// fixed-grid entry points ignore it. When the budget rejects every
	// in-core variant, the planner falls back to the out-of-core
	// streamed CholeskyQR2 rather than failing.
	MemBudget int64
	// PanelRows is the row height of the out-of-core streaming panels
	// (FactorizeStreaming and the planner's stream-cqr2 dispatch).
	// 0 = DefaultPanelRows for direct streaming calls, the planner's
	// chosen height for dispatched stream plans. Negative values are
	// rejected; the in-core entry points ignore it.
	PanelRows int
	// PlanMachine selects the machine model whose α-β-γ constants rank
	// the planner's candidates (nil = Stampede2, the paper's primary
	// platform). Planner-only, like MemBudget.
	PlanMachine *Machine
	// IncludeBaselines adds the ScaLAPACK-style PGEQRF baseline to
	// PlanGrid's ranking as a reference row (the grid the paper compares
	// against). AutoFactorize never selects it, but FactorizePlan can
	// execute it like any other row.
	IncludeBaselines bool
	// CondEst is a 2-norm condition-number hint κ₂(A) for the
	// condition-aware routing: variants whose predicted ‖QᵀQ−I‖ at that
	// κ exceeds 1e-8 are rejected, which moves κ ≳ 10⁷ inputs off the
	// plain CholeskyQR2 family and onto ShiftedCQR3 or TSQR. Leave it
	// unset (0) and AutoFactorize runs a cheap power-iteration estimator
	// on the matrix itself (PlanGrid, which never sees the matrix,
	// treats 0 as "assume well-conditioned"). Negative or NaN values are
	// rejected with an error. Consulted by the planner entry points and
	// by SolveLeastSquares — which estimates like AutoFactorize even on
	// a fixed grid, and reroutes ill-conditioned inputs off the spec —
	// but not by the raw Factorize* entry points, which run exactly what
	// they were asked to.
	CondEst float64
	// Transport selects how the distributed entry points execute: nil
	// (or SimTransport()) runs the simulated goroutine runtime with its
	// exact α-β-γ accounting; TCPTransport(workers...) runs the job
	// across real OS worker processes, with measured traffic and
	// wall-clock costs. The sequential entry points ignore it.
	Transport *Transport
	// Tracer, when non-nil, samples requests into per-request span
	// trees — serve admission, plan lookup, κ estimation, execution,
	// per-pass kernel stages, per-collective transfers with payload
	// bytes — and aggregates them into its Metrics registry. Consulted
	// by Server (each Submit becomes one trace); the direct Factorize*
	// entry points ignore it, having no request boundary to trace. nil
	// (the default) disables tracing at ~zero cost.
	Tracer *Tracer

	// ctx carries request-scoped cancellation into a run; set via the
	// context-aware entry points (Server.SubmitCtx and friends). nil
	// means no cancellation beyond Timeout.
	ctx context.Context
}

// CostStats reports a run's measured per-processor cost in the paper's
// α-β-γ units, plus the critical-path virtual time under the default
// machine parameters.
type CostStats struct {
	Msgs  int64   // α units: message latencies on the critical path
	Words int64   // β units: words moved per processor
	Flops int64   // γ units: floating point operations per processor
	Bytes int64   // raw wire bytes per processor (TCP transport; 0 simulated)
	Time  float64 // virtual seconds under simmpi.DefaultCost (wall-clock over TCP)
}

// Result carries the distributed factorization's outcome.
type Result struct {
	Q, R  *Dense
	Stats CostStats
	// Plan is the planner's choice when the run came from AutoFactorize
	// (nil for the fixed-grid entry points).
	Plan *Plan
	// CondEst is the condition-number hint the planner routed on: the
	// caller's Options.CondEst, or — when that was unset — the value
	// the power-iteration estimator measured. Zero for the fixed-grid
	// entry points and for FactorizePlan (which trusts the given plan).
	CondEst float64
	// Stream reports the out-of-core run's panel schedule and resource
	// accounting when the factorization streamed (FactorizeStreaming or
	// a dispatched stream-cqr2 plan); nil for in-core runs.
	Stream *StreamInfo
}

// FactorizeOnGrid runs CA-CQR2 on a c × d × c grid: the m×n matrix is
// scattered from rank 0 in the paper's cyclic layout over P = c·d·c
// ranks (replicated across depth slices by the grid's z broadcast, as a
// cluster would load it), factored, and the factors gathered back.
// Requires d | m and c | n. Ranks are simulated goroutines by default;
// Options.Transport can move them onto real OS worker processes.
func FactorizeOnGrid(a *Dense, spec GridSpec, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return runDistributed(wireJob{
		Variant: variantGrid, M: a.Rows, N: a.Cols, C: spec.C, D: spec.D,
		PanelWidth: opts.PanelWidth, InverseDepth: opts.InverseDepth,
		BaseSize: opts.BaseSize, Workers: opts.Workers,
	}, a.toLin(), opts)
}

// Factorize1D factors a tall matrix with 1D-CQR2 (Algorithm 7) on a
// simulated 1D grid of procs ranks, each owning a contiguous m/procs
// row block (requires procs | m). procs = 1 is the sequential
// CholeskyQR2 with measured cost accounting. This is the planner's
// c = 1 execution path: the paper's tall-skinny regime, where
// replication buys nothing and the whole Gram matrix fits one rank.
func Factorize1D(a *Dense, procs int, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if procs < 1 {
		return nil, fmt.Errorf("cacqr: invalid processor count %d", procs)
	}
	if a.Rows%procs != 0 {
		return nil, fmt.Errorf("cacqr: m=%d not divisible by P=%d", a.Rows, procs)
	}
	return runDistributed(wireJob{
		Variant: variant1D, M: a.Rows, N: a.Cols, Procs: procs, Workers: opts.Workers,
	}, a.toLin(), opts)
}

// FactorizeShifted1D factors a tall matrix with the distributed shifted
// CholeskyQR3 (one shifted CholeskyQR pass, then 1D-CQR2) on a simulated
// 1D grid of procs ranks, each owning a contiguous m/procs row block
// (requires procs | m; procs = 1 is the sequential ShiftedCQR3 with
// measured cost accounting). It stays stable to κ(A) ≈ 1/ε — far beyond
// CholeskyQR2's ~ε^{-1/2} regime — at ~1.5× the flops, and is what the
// condition-aware planner dispatches for ill-conditioned tall inputs.
func FactorizeShifted1D(a *Dense, procs int, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if procs < 1 {
		return nil, fmt.Errorf("cacqr: invalid processor count %d", procs)
	}
	if a.Rows%procs != 0 {
		return nil, fmt.Errorf("cacqr: m=%d not divisible by P=%d", a.Rows, procs)
	}
	return runDistributed(wireJob{
		Variant: variantShifted1D, M: a.Rows, N: a.Cols, Procs: procs, Workers: opts.Workers,
	}, a.toLin(), opts)
}

// FactorizeTSQR factors a tall-skinny matrix with the binary-tree TSQR
// baseline on a simulated 1D grid of procs ranks (a power of two). TSQR
// is unconditionally stable — the right tool when κ(A) exceeds
// CholeskyQR2's ~1/√ε regime — at the price of a log P critical path of
// small factorizations. panelWidth > 0 selects the blocked variant,
// which only needs m/procs ≥ panelWidth instead of m/procs ≥ n.
func FactorizeTSQR(a *Dense, procs, panelWidth int, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if procs < 1 {
		return nil, fmt.Errorf("cacqr: invalid processor count %d", procs)
	}
	// Checked here, before any ranks spin up, like every sibling entry
	// point: an invalid shape must fail fast, not after launching all P
	// ranks.
	if a.Rows%procs != 0 {
		return nil, fmt.Errorf("cacqr: m=%d not divisible by P=%d", a.Rows, procs)
	}
	return runDistributed(wireJob{
		Variant: variantTSQR, M: a.Rows, N: a.Cols, Procs: procs,
		PanelWidth: panelWidth, Workers: opts.Workers,
	}, a.toLin(), opts)
}

// FactorizePGEQRF factors an m×n matrix with the ScaLAPACK-style 2D
// Householder baseline (internal/pgeqrf) on a simulated pr×pc process
// grid with panel width nb (requires pr | m, nb | n, m ≥ n). The
// factored form's reflectors are turned into the explicit reduced Q by
// applying them to the distributed identity (the PDORGQR pattern), and
// signs are normalized so R has a non-negative diagonal — directly
// comparable with the CholeskyQR family. Unconditionally stable; this
// is the execution path behind the planner's PGEQRF rows, making every
// priced plan dispatchable. Note the measured Stats include the
// explicit-Q formation and its m×n output Allreduce, which the cost
// model's PGEQRF row (factorization only, the paper's comparison
// object) deliberately does not price — unlike the CQR-family paths,
// measured cost here exceeds the plan's prediction by that output
// work.
func FactorizePGEQRF(a *Dense, pr, pc, nb int, opts Options) (*Result, error) {
	if err := checkOptions(opts); err != nil {
		return nil, err
	}
	if pr < 1 || pc < 1 {
		return nil, fmt.Errorf("cacqr: invalid process grid %dx%d", pr, pc)
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("cacqr: PGEQRF requires m ≥ n, got %dx%d", a.Rows, a.Cols)
	}
	return runDistributed(wireJob{
		Variant: variantPGEQRF, M: a.Rows, N: a.Cols, PR: pr, PC: pc, NB: nb,
		Workers: opts.Workers,
	}, a.toLin(), opts)
}

// Machine re-exports the cost model's machine description.
type Machine = costmodel.Machine

// Stampede2 and BlueWaters are the paper's two evaluation platforms.
var (
	Stampede2  = costmodel.Stampede2
	BlueWaters = costmodel.BlueWaters
)

// ModelCost is the per-processor critical-path cost predicted by the
// validated analytic model.
type ModelCost = costmodel.Cost

// ModelCACQR2 predicts CA-CQR2's cost for an m×n matrix on a c×d×c grid.
func ModelCACQR2(m, n int, spec GridSpec, opts Options) (ModelCost, error) {
	return costmodel.CACQR2(m, n, costmodel.CACQRParams{
		C: spec.C, D: spec.D, BaseSize: opts.BaseSize, InverseDepth: opts.InverseDepth,
	})
}

// ModelPGEQRF predicts the ScaLAPACK-style baseline's cost on a pr×pc
// grid with panel width nb.
func ModelPGEQRF(m, n, pr, pc, nb int) (ModelCost, error) {
	return costmodel.PGEQRF(m, n, pr, pc, nb)
}

// PredictGFlopsPerNode converts a modeled cost into the paper's
// Gigaflops/s/node metric on a machine with the given node count.
func PredictGFlopsPerNode(mach Machine, c ModelCost, m, n, nodes int) float64 {
	return mach.GFlopsPerNode(c, m, n, nodes)
}
