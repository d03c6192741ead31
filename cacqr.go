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
//   - Distributed factorizations over a processor grid — FactorizeOnGrid
//     (the paper's CA-CQR2 on c × d × c ranks), FactorizePlan (any row
//     of the planner's table: CA-CQR2 on any grid, 1D included, the
//     panel variant, ShiftedCQR3, the TSQR and PGEQRF comparison rows),
//     the planner-driven AutoFactorize, and the out-of-core
//     FactorizeStreaming. Each is a few lines that name a plan and hand
//     it to the one executor (see distributed.go), which reports the
//     factors and the measured per-processor communication/computation
//     costs.
//   - The validated cost model (Model* functions and Machine values) for
//     predicting performance at supercomputer scale.
package cacqr

import (
	"context"
	"fmt"
	"math"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/plan"
	"cacqr/internal/stream"
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

// validate rejects a nil matrix and one whose Data does not hold
// Rows×Cols values, so a hand-assembled Dense is an error at the entry
// point instead of an index panic inside a kernel.
func (d *Dense) validate() error {
	if d == nil {
		return fmt.Errorf("cacqr: nil matrix")
	}
	if d.Rows < 0 || d.Cols < 0 || len(d.Data) != d.Rows*d.Cols {
		return fmt.Errorf("cacqr: %d values for a %dx%d matrix", len(d.Data), d.Rows, d.Cols)
	}
	return nil
}

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
	return sequential(a, func(m *lin.Matrix) (*lin.Matrix, *lin.Matrix, error) { return core.CholeskyQR2(m, 0) })
}

// sequential is the body of the three single-call factorizations: check
// the matrix, run the kernel on a view of it, adopt the factors.
func sequential(a *Dense, factor func(*lin.Matrix) (q, r *lin.Matrix, err error)) (*Dense, *Dense, error) {
	if err := a.validate(); err != nil {
		return nil, nil, err
	}
	ql, rl, err := factor(a.view())
	if err != nil {
		return nil, nil, err
	}
	return fromLin(ql), fromLin(rl), nil
}

// ShiftedCQR3 is the unconditionally stable three-pass variant: a shifted
// CholeskyQR pass followed by CholeskyQR2.
func ShiftedCQR3(a *Dense) (q, r *Dense, err error) {
	return sequential(a, func(m *lin.Matrix) (*lin.Matrix, *lin.Matrix, error) { return core.ShiftedCQR3(m, 0) })
}

// HouseholderQR is the classical reference factorization.
func HouseholderQR(a *Dense) (q, r *Dense, err error) {
	return sequential(a, lin.QR)
}

// OrthogonalityError returns ‖QᵀQ − I‖_F.
func OrthogonalityError(q *Dense) float64 { return lin.OrthogonalityError(q.view()) }

// ResidualNorm returns ‖A − Q·R‖_F / ‖A‖_F.
func ResidualNorm(a, q, r *Dense) float64 {
	return lin.ResidualNorm(a.view(), q.view(), r.view())
}

// EstimateCondition returns a power-iteration estimate of κ₂(A) — the
// same measurement AutoFactorize makes when Options.CondEst is unset.
// The well-conditioned path costs one n×n Gram SYRK plus a few dozen n²
// matvecs (≈ 0.25 ms on 1024×128 on a 2-vCPU Xeon). When κ ≳ ε^{-1/2}
// saturates that route, a Householder-QR fallback (2mn², paid only on
// ill-conditioned inputs) resolves κ up to ~1/ε, so the planner can
// still tell ShiftedCQR3's regime from true TSQR territory; it costs
// ≈ 7 ms on the same shape, about half the ShiftedCQR3 run that follows.
// The estimate converges from below; +Inf means numerically
// rank-deficient.
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
// (P = c·d·c ranks) for plain CA-CQR2. C = 1 is the 1D algorithm
// (1D-CQR2 on d ranks), C = D the 3D algorithm; GridSpec{1, 1} is the
// sequential CholeskyQR2.
type GridSpec struct {
	C, D int
}

// Procs returns the rank count of the grid.
func (g GridSpec) Procs() int { return g.C * g.D * g.C }

// Options tune a run like the paper's experiment legends. Three groups:
// knobs of the run itself (InverseDepth, BaseSize, Workers, PanelRows),
// where it runs (Transport, Timeout, Tracer), and what the planner may
// choose from (MemBudget, PlanMachine, IncludeBaselines, CondEst). A
// field an entry point has no use for is ignored: a run executes exactly
// the plan it was given, and a plan carries its own panel width.
type Options struct {
	// InverseDepth is the number of top CFR3D recursion levels that skip
	// the explicit triangular-inverse block (0 = full inverse).
	InverseDepth int
	// BaseSize is CFR3D's base-case dimension n_o (0 = the
	// bandwidth-optimal default n/c²). The fixed-grid entry points run
	// these two and the planner prices its rows with them; a plan carries
	// its own, so FactorizePlan does not read them.
	BaseSize int
	// Timeout bounds a distributed run's wall-clock time (0 = 10min).
	Timeout time.Duration
	// Workers bounds the goroutines each rank's local level-3 kernels
	// may use on top of the rank's own goroutine. In a rank body (every
	// grid and TSQR run) 0 means 1, serial per rank: a simulated grid
	// already runs P goroutines, so extra fan-out only helps when the
	// grid is small and the per-rank blocks are large. Two paths have no
	// ranks and read 0 as GOMAXPROCS: a streamed run's in-core kernels,
	// and a fused batch (SubmitBatch, the only fused entry), which spreads
	// its items over up to Workers pool workers and runs each item serially.
	// Factors and measured costs are identical for any value — Workers
	// trades wall-clock only. Negative values are rejected with an error.
	// (CholeskyQR2, ShiftedCQR3 and SolveLeastSquaresSeq take no Options
	// and use all of GOMAXPROCS.)
	Workers int
	// MemBudget bounds the planner's modeled per-rank memory footprint
	// in bytes (0 = unlimited). When the budget rejects every in-core
	// variant, the planner falls back to the out-of-core streamed
	// CholeskyQR2 rather than failing.
	MemBudget int64
	// PanelRows is the row height of FactorizeStreaming's panels
	// (0 = DefaultPanelRows; negative values are rejected). A stream-cqr2
	// plan carries the height the planner chose instead.
	PanelRows int
	// PlanMachine selects the machine model whose α-β-γ constants rank
	// the planner's candidates (nil = Stampede2, the paper's primary
	// platform).
	PlanMachine *Machine
	// IncludeBaselines adds the ScaLAPACK-style PGEQRF baseline to
	// PlanGrid's ranking as a reference row (the grid the paper compares
	// against). AutoFactorize never selects it, but FactorizePlan can
	// execute it like any other row.
	IncludeBaselines bool
	// CondEst is a 2-norm condition-number hint κ₂(A) for the
	// condition-aware routing: variants whose predicted ‖QᵀQ−I‖ at that
	// κ exceeds 1e-8 are rejected, which moves κ ≳ 10⁷ inputs off the
	// plain CholeskyQR2 family and onto ShiftedCQR3 or TSQR, and starts
	// a streamed run on the shifted ladder. Leave it unset (0) and
	// AutoFactorize and SolveLeastSquares run a cheap power-iteration
	// estimator on the matrix itself (PlanGrid, which never sees the
	// matrix, treats 0 as "assume well-conditioned"). Negative or NaN
	// values are rejected with an error. It never overrides an explicit
	// choice: the fixed-grid entry points and FactorizePlan run the
	// variant they were asked to.
	CondEst float64
	// Transport selects where the ranks of a distributed run execute:
	// nil (or SimTransport()) is the simulated goroutine runtime with its
	// exact α-β-γ accounting; TCPTransport(workers...) runs the job
	// across real OS worker processes, with measured traffic and
	// wall-clock costs.
	Transport *Transport
	// Tracer, when non-nil, makes a Server sample its requests into
	// per-request span trees — serve admission, plan lookup, κ
	// estimation, execution, per-pass kernel stages, per-collective
	// transfers with payload bytes — and aggregate them into its Metrics
	// registry. A trace belongs to a request, so only the Server starts
	// one. nil (the default) disables tracing at ~zero cost.
	Tracer *Tracer
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
	// Plan is the plan that ran when the run came from AutoFactorize or
	// FactorizePlan (nil for the fixed-grid entry points).
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

// factorize is the body of every entry point that holds its matrix in
// memory: check the matrix, describe the run as a job, execute it on a
// zero-copy source over the matrix. The dense sink asks a streamed plan
// for its Q pass; an in-core run has Q resident anyway.
func factorize(a *Dense, p plan.Plan, opts Options) (*Result, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	j, err := newJob(a.Rows, a.Cols, p, opts)
	if err != nil {
		return nil, err
	}
	return execute(context.Background(), j, stream.NewDenseSource(a.view()), SinkToDense())
}

// checkShape is the one shape rule of the library: every variant
// factors a tall (or square) matrix.
func checkShape(m, n int) error {
	if n < 1 || m < n {
		return fmt.Errorf("cacqr: %dx%d matrix: QR of a tall matrix needs m ≥ n ≥ 1", m, n)
	}
	return nil
}

// checkOptions rejects malformed knobs — a negative Workers,
// InverseDepth or PanelRows, a negative or NaN condition estimate — so
// misuse is an error, never a panic. An unset CondEst (0) is valid.
func checkOptions(opts Options) error {
	if opts.Workers < 0 {
		return fmt.Errorf("cacqr: negative Workers %d (0 = per-rank serial)", opts.Workers)
	}
	if opts.InverseDepth < 0 {
		return fmt.Errorf("cacqr: negative InverseDepth %d", opts.InverseDepth)
	}
	if math.IsNaN(opts.CondEst) || opts.CondEst < 0 {
		return fmt.Errorf("cacqr: invalid CondEst %g (want ≥ 0; 0 = let AutoFactorize estimate it)", opts.CondEst)
	}
	if opts.PanelRows < 0 {
		return fmt.Errorf("cacqr: negative PanelRows %d (0 = default)", opts.PanelRows)
	}
	return nil
}

// FactorizeOnGrid runs CA-CQR2 on a c × d × c grid: the m×n matrix is
// scattered from rank 0 in the paper's cyclic layout over P = c·d·c
// ranks (replicated across depth slices by the grid's z broadcast, as a
// cluster would load it), factored, and the factors gathered back.
// Requires d | m and c | n. Ranks are simulated goroutines by default;
// Options.Transport can move them onto real OS worker processes. The §V
// panel variant is the row Plan{Variant: VariantPanelCACQR2, C, D,
// PanelWidth} for FactorizePlan.
func FactorizeOnGrid(a *Dense, spec GridSpec, opts Options) (*Result, error) {
	return factorize(a, spec.asPlan(opts), opts)
}

// asPlan describes CA-CQR2 on the grid with the legend knobs of opts.
func (g GridSpec) asPlan(opts Options) plan.Plan {
	return plan.Plan{Variant: plan.CACQR2, C: g.C, D: g.D, InverseDepth: opts.InverseDepth, BaseSize: opts.BaseSize}
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

// ModelStreamCQR2 predicts the streamed CholeskyQR2's cost (flops plus
// disk-tier I/O) for an m×n matrix in panels of panelRows rows; writeQ
// includes the Q pass, shifted prices the shifted ladder. A run's
// counters equal it exactly.
func ModelStreamCQR2(m, n, panelRows int, writeQ, shifted bool) (ModelCost, error) {
	return costmodel.StreamCQR2(m, n, panelRows, writeQ, shifted)
}

// ModelStreamCQR2Memory predicts the streaming driver's peak resident
// footprint in bytes.
func ModelStreamCQR2Memory(m, n, panelRows int) (int64, error) {
	w, err := costmodel.StreamCQR2Memory(m, n, panelRows)
	if err != nil {
		return 0, err
	}
	return 8 * w, nil
}

// PredictGFlopsPerNode converts a modeled cost into the paper's
// Gigaflops/s/node metric on a machine with the given node count.
func PredictGFlopsPerNode(mach Machine, c ModelCost, m, n, nodes int) float64 {
	return mach.GFlopsPerNode(c, m, n, nodes)
}
