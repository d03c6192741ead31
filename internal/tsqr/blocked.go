package tsqr

import (
	"fmt"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// BlockedFactor lifts TSQR's m/P ≥ n restriction by processing the
// columns in panels of width b (m/P ≥ b suffices): each panel is factored
// by the reduction-tree TSQR, then the trailing columns receive a
// reorthogonalized block-Gram-Schmidt (BGS2) update, applied twice per
// the classical "twice is enough" rule so cross-panel orthogonality
// stays at O(ε):
//
//	R_k,rest  = Q_kᵀ · A_rest     (local product + Allreduce over rows)
//	A_rest   -= Q_k · R_k,rest    (local)
//	(repeat once, accumulating into R_k,rest)
//
// This is the structure of communication-avoiding 2D QR algorithms
// (the paper's reference [5]) restricted to a 1D row distribution, and
// doubles as a second stable baseline next to PGEQRF.
//
// Returns this rank's m/P × n block of Q and the replicated n×n R.
// workers is threaded to the per-panel Factor calls and the local BGS2
// products (≤ 1 = serial).
func BlockedFactor(comm transport.Comm, aLocal *lin.Matrix, m, n, b, workers int) (qLocal, r *lin.Matrix, err error) {
	if workers < 1 {
		workers = 1
	}
	p := comm.Size()
	if b < 1 || n%b != 0 {
		return nil, nil, fmt.Errorf("tsqr: panel width %d must divide n=%d", b, n)
	}
	if m%p != 0 || aLocal.Rows != m/p || aLocal.Cols != n {
		return nil, nil, fmt.Errorf("tsqr: local block %dx%d for m=%d n=%d P=%d", aLocal.Rows, aLocal.Cols, m, n, p)
	}
	if m/p < b {
		return nil, nil, fmt.Errorf("tsqr: local rows %d below panel width %d", m/p, b)
	}
	proc := comm.Proc()

	work := aLocal.Clone()
	q := lin.NewMatrix(aLocal.Rows, n)
	r = lin.NewMatrix(n, n)

	np := n / b
	for k := 0; k < np; k++ {
		panel := work.View(0, k*b, work.Rows, b).Clone()
		qk, rkk, err := Factor(comm, panel, m, b, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("tsqr: panel %d: %w", k, err)
		}
		q.View(0, k*b, q.Rows, b).CopyFrom(qk)
		r.View(k*b, k*b, b, b).CopyFrom(rkk)

		rest := n - (k+1)*b
		if rest == 0 {
			continue
		}
		restView := work.View(0, (k+1)*b, work.Rows, rest)

		// BGS2: project and update twice, accumulating the coefficients.
		rkRest := lin.NewMatrix(b, rest)
		for pass := 0; pass < 2; pass++ {
			partial := lin.NewMatrix(b, rest)
			lin.GemmParallel(workers, true, false, 1, qk, restView, 0, partial)
			if err := proc.Compute(lin.GemmFlops(b, rest, qk.Rows)); err != nil {
				return nil, nil, err
			}
			coeff, err := dist.Allreduce(comm, partial, nil)
			if err != nil {
				return nil, nil, err
			}
			rkRest.Add(coeff)
			lin.GemmParallel(workers, false, false, -1, qk, coeff, 1, restView)
			if err := proc.Compute(lin.GemmFlops(qk.Rows, rest, b)); err != nil {
				return nil, nil, err
			}
		}
		r.View(k*b, (k+1)*b, b, rest).CopyFrom(rkRest)
	}
	return q, r, nil
}
