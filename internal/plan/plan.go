// Package plan is the autotuning planner between the validated cost
// model and the execution paths: given a matrix shape, a processor
// budget, a machine model, and a per-rank memory budget, it enumerates
// every feasible algorithm variant and grid — the paper's tunable
// c × d × c CA-CQR2 family (Tables I–VI), whose c = 1 member is the 1D
// algorithm (on one rank, the sequential one), its shifted CholeskyQR3,
// the §V panel variant, and the TSQR baseline — prices each candidate
// with internal/costmodel, and returns a ranked list of plans.
//
// The point is the paper's central tension: the right (c, d) depends on
// the matrix aspect ratio, the processor count, and the machine's
// α-β-γ constants. Very tall matrices want c = 1 (the 1D algorithm);
// near-square matrices on bandwidth-starved machines want c → d (the 3D
// algorithm); everything in between interpolates. The planner automates
// the choice the paper's experiments made by hand.
//
// One rule, one price, one policy. The paper's method is "name a point
// (variant, d, c, InverseDepth | pr, nb), ask the model what it costs",
// and that point is a Plan. Check is the only place that decides whether
// a plan fits an m×n matrix — the executor admits every job through it.
// Price is Check plus the only variant → (cost, memory) table. Enumerate
// is policy: which extents are worth asking about, the budget and κ
// gates, the ranking; it asks Price about each candidate, as
// internal/bench does about each legend point of Figures 1 and 4–7.
//
// Predictions reuse the exact recurrences that the costmodel tests
// validate against instrumented runs, so a plan's Cost is the cost the
// simulated runtime will actually charge (up to the final gather) when
// the plan is run — with the knobs it carries, which are the knobs it
// was priced with.
package plan

import (
	"fmt"
	"math"

	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
)

// Variant names an algorithm the planner can select.
type Variant string

const (
	// CACQR2 is the paper's Algorithm 9 on a c × d × c grid. C = 1 is
	// 1D-CQR2 (Algorithm 7) over D ranks; C = D = 1 is the sequential
	// CholeskyQR2 with no communication.
	CACQR2 Variant = "ca-cqr2"
	// PanelCACQR2 is the §V panel-wise variant on a c × d × c grid.
	PanelCACQR2 Variant = "panel-ca-cqr2"
	// TSQR is the binary-tree Householder baseline (power-of-two ranks).
	// Rows with PanelWidth > 0 are the blocked variant (BGS2 panel
	// updates), which lifts the m/p ≥ n restriction to m/p ≥ b and is
	// enumerated exactly where plain TSQR is infeasible.
	TSQR Variant = "tsqr"
	// ShiftedCQR3 is the three-pass shifted CholeskyQR3 (Fukaya et al.)
	// on a C × D × C grid: ~1.5× CACQR2's cost on the same grid, stable
	// to κ ≈ 1/ε where the CholeskyQR2 family breaks down at
	// κ ≈ ε^{-1/2}. The condition-aware router's fallback for
	// ill-conditioned inputs.
	ShiftedCQR3 Variant = "shifted-cqr3"
	// PGEQRF is the ScaLAPACK-style 2D Householder baseline, priced as a
	// reference row (Request.IncludeBaselines) that the ranking never
	// prefers for execution — Best skips baselines — but which
	// FactorizePlan can now dispatch like any other row.
	PGEQRF Variant = "pgeqrf"
	// StreamCQR2 is the out-of-core CholeskyQR2 (internal/stream): one
	// rank streams row panels of PanelWidth rows and accumulates the
	// Gram matrix over them — 1D-CQR2 with the allreduce turned into a
	// running sum — so the resident footprint is three panels' worth plus
	// O(n²) instead of the whole matrix. It pays three reads and one
	// write of the data on the disk tier (one more read on the shifted
	// ladder), so the planner enumerates it strictly as a fallback: only
	// when no in-core variant fits the memory budget.
	StreamCQR2 Variant = "stream-cqr2"
)

// Request describes one planning problem.
type Request struct {
	// M, N is the global matrix shape (m ≥ n).
	M, N int
	// Procs is the maximum number of simulated ranks available. Plans
	// may use fewer (grids must satisfy c·d·c ≤ Procs).
	Procs int
	// Machine supplies the α-β-γ constants used for ranking. The zero
	// value selects costmodel.Stampede2, the paper's primary platform.
	Machine costmodel.Machine
	// MemBudget is the per-rank memory budget in bytes (8-byte words
	// from the footprint model). 0 means unlimited. Plans whose modeled
	// per-rank footprint exceeds the budget are rejected.
	MemBudget int64
	// InverseDepth and BaseSize are the CFR3D knobs every grid candidate
	// is priced with and carries (the paper's legend knobs; not swept).
	InverseDepth, BaseSize int
	// IncludeBaselines adds the PGEQRF reference row to the ranking so
	// CLI tables can show the baseline the paper beats. The row is
	// executable via FactorizePlan, but Best never selects it.
	IncludeBaselines bool
	// CondEst is the caller's 2-norm condition-number estimate for the
	// matrix (κ₂(A)). When > 1, variants whose predicted orthogonality
	// loss ‖QᵀQ−I‖ at that κ exceeds DefaultOrthTol are rejected — this
	// is the paper-§VII routing: κ ≳ 10⁷ inputs leave the plain
	// CholeskyQR2 family for ShiftedCQR3 or TSQR. 0 (or 1) means "no information":
	// every numerically plausible variant competes on predicted time
	// alone. Negative or NaN values are rejected as errors.
	CondEst float64
}

// DefaultOrthTol is the acceptable predicted ‖QᵀQ−I‖ under a
// Request.CondEst: the one threshold of the condition-aware routing.
const DefaultOrthTol = 1e-8

// machine epsilon for float64, the ε of the stability bounds.
const eps = lin.Eps

// PredictOrthogonality returns the modeled orthogonality loss ‖QᵀQ−I‖
// of a variant for an m×n matrix at condition number cond, per the
// CholeskyQR literature's bounds (panelWidth is the plan row's
// PanelWidth — it distinguishes the blocked TSQR from the plain tree):
//
//   - CholeskyQR2 family: O(ε) while κ²·ε ≲ 1/64 (κ ≲ 8.4e6, the §I
//     criterion); beyond that the Gram matrix loses numerical
//     definiteness and the factorization breaks down entirely (returned
//     as 1 — no useful orthogonality).
//   - ShiftedCQR3 (Fukaya et al.): the shifted first pass maps κ(A) to
//     κ(Q₁) ≈ √(11(mn+n(n+1))ε)·κ(A), which must itself land inside
//     CholeskyQR2's regime — O(ε) while that holds (κ ≲ 1e12 at test
//     shapes, shrinking slowly with mn), 1 beyond.
//   - Plain TSQR and PGEQRF (Householder): unconditionally O(ε).
//   - StreamCQR2: beyond the CholeskyQR2 regime the driver runs the
//     streamed ShiftedCQR3 — forced by the condition estimate, or
//     escalated to when a Gram matrix will not factor or the measured
//     ‖Q₁ᵀQ₁−I‖_F is ≥ ½ — so the loss is ShiftedCQR3's bound.
//   - PanelCACQR2: each panel's CholeskyQR2 is O(ε), but the trailing
//     updates lose orthogonality across panels with the conditioning
//     like block Gram-Schmidt, about κε (measured 0.25–1.1·κε on
//     512×64 over 2×4×2 at κ = 1e2…8e6): the CholeskyQR2 bound, or 2κε
//     where that is larger.
//   - Blocked TSQR (panelWidth > 0): each panel's tree QR is stable,
//     but the cross-panel BGS2 updates lose orthogonality with the
//     conditioning — O(ε·κ), the classical reorthogonalized
//     block-Gram-Schmidt bound (the κ-sweep e2e tests measure well
//     under it, e.g. ~5e-11 at κ=1e12).
//
// cond ≤ 1 (including the "unknown" zero value) is treated as a
// perfectly conditioned matrix.
func PredictOrthogonality(v Variant, m, n, panelWidth int, cond float64) float64 {
	if cond <= 1 {
		cond = 1
	}
	// Stable-regime floor: an n×n near-identity Gram matrix with
	// O(ε)-sized entries has Frobenius norm Θ(√n·ε) or more, so a bare
	// 8ε would understate what healthy runs actually measure.
	floor := 8 * math.Sqrt(float64(n)) * eps
	cqr2Loss := func(kappa float64) float64 {
		if CQR2Breaks(kappa) {
			return 1
		}
		d := kappa * kappa * eps // one-pass loss κ²ε
		return floor * (1 + d) * (1 + d)
	}
	switch v {
	case TSQR:
		if panelWidth > 0 {
			return math.Max(floor, cond*eps) // BGS2 cross-panel loss
		}
		return floor
	case PGEQRF:
		return floor
	case ShiftedCQR3, StreamCQR2:
		shrink := math.Sqrt(11 * float64(m*n+n*(n+1)) * eps)
		return cqr2Loss(shrink * cond)
	case PanelCACQR2:
		return math.Max(cqr2Loss(cond), 2*cond*eps)
	default: // the plain CholeskyQR2 family
		return cqr2Loss(cond)
	}
}

// CQR2Breaks is the §I stability criterion from the failing side: plain
// CholeskyQR2 delivers Householder-level orthogonality while
// κ(A) = O(1/√ε), and at κ²·ε ≥ 1/64 (κ ≥ 2²³) no longer does. It is
// the one regime test: the planner prices a stream-cqr2 row on the
// shifted ladder by it and the streaming executor starts on that ladder
// by it, so a hinted run's counters equal the row's prediction.
func CQR2Breaks(cond float64) bool { return cond*cond*eps >= 1.0/64 }

// Plan is one priced candidate.
type Plan struct {
	Variant Variant
	// C, D are the grid parameters for the CA-CQR2 family and
	// ShiftedCQR3 (C = 1 is the 1D grid), and pc, pr for PGEQRF; unused
	// for TSQR.
	C, D int
	// PanelWidth is the panel width b: the §V subpanel width for
	// PanelCACQR2, the BGS2 panel width for blocked TSQR rows, the
	// ScaLAPACK nb for PGEQRF rows (0 = unblocked), and the panel row
	// count for StreamCQR2 rows (where the "panel" is b×n of rows, not
	// columns).
	PanelWidth int
	// InverseDepth and BaseSize are CFR3D's knobs on the grid family (the
	// paper's legends name the first): the top recursion levels that skip
	// the explicit inverse, and the base-case dimension (0 = n/c²). A row
	// records what it was priced with, and a run executes it.
	InverseDepth, BaseSize int
	// Procs is the number of ranks the plan actually uses: c·d·c for
	// the grid family, TSQR's rank count otherwise.
	Procs int
	// Cost is the modeled per-processor critical-path cost.
	Cost costmodel.Cost
	// Seconds is Machine.Time(Cost), the ranking key.
	Seconds float64
	// MemWords is the modeled peak per-rank footprint in 8-byte words;
	// MemBytes = 8 · MemWords.
	MemWords int64
	// Rationale is a one-line human-readable justification.
	Rationale string
	// PredOrth is the modeled orthogonality loss ‖QᵀQ−I‖ of this
	// variant at the request's CondEst (the ~8√n·ε stable-regime floor
	// when no hint was given).
	PredOrth float64
}

// MemBytes is the modeled peak per-rank footprint in bytes.
func (p Plan) MemBytes() int64 { return 8 * p.MemWords }

// GridString renders the processor layout: "c×d×c" for the grid family,
// "p=…" for TSQR and the streamed run.
func (p Plan) GridString() string {
	switch p.Variant {
	case CACQR2, PanelCACQR2, ShiftedCQR3:
		return fmt.Sprintf("%d×%d×%d", p.C, p.D, p.C)
	case PGEQRF:
		return fmt.Sprintf("%d×%d", p.D, p.C)
	default:
		return fmt.Sprintf("p=%d", p.Procs)
	}
}

func (p Plan) String() string {
	s := fmt.Sprintf("%s %s: %.3g s (α=%d β=%d γ=%d, %d words/rank)",
		p.Variant, p.GridString(), p.Seconds, p.Cost.Msgs, p.Cost.Words, p.Cost.TotalFlops(), p.MemWords)
	if p.PanelWidth > 0 {
		s += fmt.Sprintf(" b=%d", p.PanelWidth)
	}
	return s
}
