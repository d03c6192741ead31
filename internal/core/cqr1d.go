package core

import (
	"fmt"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/obs"
	"cacqr/internal/transport"
)

// rowBlock is the Tall of a matrix spread over a 1D grid of P
// processors, each owning an m/P × n row block: the resident block plus
// the Gram Allreduce and the per-line charges of Algorithm 6,
//
//	line 1: X = Syrk(Π⟨A⟩)           (local, (m/P)·n² flops)
//	line 2: Z = Allreduce(X, Π)      (n² words)
//	line 3: Rᵀ, R⁻ᵀ = CholInv(Z)     (redundant, n³ flops — Replicated's)
//	line 4: Π⟨Q⟩ = MM(Π⟨A⟩, R⁻¹)     (local, charged at the TRMM rate
//	                                  (m/P)·n², matching the paper's
//	                                  4mn² + (5/3)n³ critical-path count)
//
// with a stage span per line on a rank that carries a trace span (a
// rank without one gets a nil *Stages and every call no-ops). Shifted
// and plain passes charge alike, so the "measured γ == predicted γ"
// contract cannot diverge between the variants.
type rowBlock struct {
	resident
	comm transport.Comm
	stg  *obs.Stages
}

func (t *rowBlock) Gram() error {
	t.stg.Enter("gram-syrk")
	t.G = lin.SyrkNewParallel(t.workers, t.a)
	if err := t.comm.Proc().Compute(lin.SyrkFlops(t.a.Rows, t.a.Cols)); err != nil {
		return err
	}
	t.stg.Enter("gram-allreduce")
	var err error
	t.G, err = dist.Allreduce(t.comm, t.G, nil)
	t.stg.Enter("cholesky")
	return err
}

func (t *rowBlock) Factor(m int, shifted, first bool) error {
	flops, err := t.Step(m, shifted, first)
	if err != nil {
		return err
	}
	t.stg.Enter("q-update")
	defer t.stg.Done()
	t.apply()
	return t.comm.Proc().Compute(flops + lin.TrsmFlops(t.q.Rows, t.q.Cols))
}

// oneD runs the ladder on this rank's row block and returns its Q block
// and the replicated n × n R. aLocal is not modified.
//
// workers bounds the goroutines the rank's local level-3 kernels may
// use (≤ 1 = serial, the right default for simulated grids). Results
// are identical for any value.
func oneD(comm transport.Comm, aLocal *lin.Matrix, m, n, workers, passes int, shifted bool) (qLocal, r *lin.Matrix, err error) {
	np := comm.Size()
	if m%np != 0 {
		return nil, nil, fmt.Errorf("core: m=%d not divisible by P=%d", m, np)
	}
	if aLocal.Rows != m/np || aLocal.Cols != n {
		return nil, nil, fmt.Errorf("core: local block %dx%d, want %dx%d", aLocal.Rows, aLocal.Cols, m/np, n)
	}
	t := &rowBlock{
		resident: resident{a: aLocal, q: lin.NewMatrix(aLocal.Rows, n), workers: max(workers, 1)},
		comm:     comm,
		stg:      obs.StagesOf(comm.Proc()),
	}
	defer t.stg.Done()
	if _, err = Ladder(t, m, passes, shifted); err != nil {
		return nil, nil, err
	}
	return t.q, t.R, nil
}

// OneDCQR is the existing parallel 1D CholeskyQR (Algorithm 6): one pass
// over a 1D grid of comm.Size() processors (see rowBlock for the lines
// and oneD for the arguments).
func OneDCQR(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int) (qLocal, r *lin.Matrix, err error) {
	return oneD(comm, aLocal, m, n, workers, 1, false)
}

// OneDCQR2 is Algorithm 7: two OneDCQR passes and a local triangular
// product R = R₂·R₁ ((1/3)n³ flops).
func OneDCQR2(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int) (qLocal, r *lin.Matrix, err error) {
	return oneD(comm, aLocal, m, n, workers, 2, false)
}

// OneDShiftedCQR3 is the distributed shifted CholeskyQR3: one shifted
// pass to tame the conditioning, then two plain ones. It succeeds for
// κ(A) far beyond plain (1D-)CQR2's ~ε^{-1/2} breakdown, at ~1.5× the
// flops — the planner's condition-aware fallback for ill-conditioned
// tall matrices.
func OneDShiftedCQR3(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int) (qLocal, r *lin.Matrix, err error) {
	return oneD(comm, aLocal, m, n, workers, 3, true)
}
