// Package core implements the paper's contribution: the CholeskyQR family
// of QR factorization algorithms, from the sequential building blocks
// (Algorithms 4–5) through the existing 1D parallelization (Algorithms
// 6–7) to the new communication-avoiding CA-CQR2 over a tunable c × d × c
// processor grid (Algorithms 8–9), plus the shifted CholeskyQR3 extension
// the paper's conclusion points to.
//
// All parallel variants run on the simmpi runtime, so every invocation
// yields both a numerical result and exact per-processor α-β-γ cost
// measurements.
package core

import (
	"errors"
	"fmt"
	"math"

	"cacqr/internal/lin"
)

// ErrIllConditioned is returned when CholeskyQR's Gram matrix is not
// numerically positive definite, which happens when κ(A)² overflows the
// precision (the §I condition κ(A) ≲ 1/√ε).
var ErrIllConditioned = errors.New("core: matrix too ill-conditioned for CholeskyQR (try ShiftedCQR3)")

// CholeskyQR computes the reduced factorization A = Q·R by one CholeskyQR
// pass (Algorithm 4): W = AᵀA, R = chol(W)ᵀ, Q = A·R⁻¹. The orthogonality
// error of Q grows as Θ(κ(A)²·ε); the residual stays O(ε). A is never
// modified.
//
// workers bounds the goroutines the level-3 kernels may use (0 =
// GOMAXPROCS, 1 = serial); results are identical for any value.
func CholeskyQR(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return intoNewQ(a, func(q *lin.Matrix) (*lin.Matrix, error) { return pass(a, q, workers, false) })
}

// intoNewQ is the frame the out-of-place drivers share: reject a wide
// matrix, allocate Q, and run factor, which fills Q from a and returns R.
func intoNewQ(a *lin.Matrix, factor func(q *lin.Matrix) (*lin.Matrix, error)) (q, r *lin.Matrix, err error) {
	if a.Rows < a.Cols {
		return nil, nil, lin.ErrShape
	}
	q = lin.NewMatrix(a.Rows, a.Cols)
	if r, err = factor(q); err != nil {
		return nil, nil, err
	}
	return q, r, nil
}

// qBlockRows is the row block of the out-of-place Q update. It is a
// multiple of the lin kernels' tile height, so the blocks see the same
// tiles — and produce the same bits — as one update of the whole matrix.
const qBlockRows = 256

// pass is one CholeskyQR pass reading a and writing Q into q, which is
// either a itself (a is owned: updated in place, no copy) or a separate
// matrix of the same shape (a is left untouched). shifted adds the
// Fukaya shift to the Gram matrix first.
func pass(a, q *lin.Matrix, workers int, shifted bool) (r *lin.Matrix, err error) {
	m, n := a.Rows, a.Cols
	w := lin.SyrkNewParallel(workers, a)
	if shifted {
		ShiftGram(w, m)
	}
	l, y, err := lin.CholInv(w)
	if err != nil {
		return nil, illConditioned(err, shifted)
	}
	// Q = A·R⁻¹ = A·(L⁻¹)ᵀ, applied as a triangular multiply: Y = L⁻¹ is
	// lower triangular, so the dense GEMM formulation would spend half its
	// flops multiplying by exact zeros.
	if q == a {
		lin.TrmmParallel(workers, lin.Right, lin.Lower, true, y, q)
		return l.T(), nil
	}
	// Out of place: each block is copied and updated while it is still in
	// cache, instead of cloning all of A and then sweeping it again.
	lin.BatchApply(workers, (m+qBlockRows-1)/qBlockRows, func(i int) {
		lo := i * qBlockRows
		blk := q.View(lo, 0, min(qBlockRows, m-lo), n)
		blk.CopyFrom(a.View(lo, 0, blk.Rows, n))
		lin.Trmm(lin.Right, lin.Lower, true, y, blk)
	})
	return l.T(), nil
}

// ShiftGram adds the shift of Fukaya et al. (the paper's reference [3]) to
// the diagonal of the Gram matrix w = AᵀA of an m-row A:
// s = 11·(m·n + n·(n+1))·ε·‖A‖₂², with the trace bounding ‖A‖₂² ≤ ‖A‖_F²
// (the bound only needs an upper estimate).
func ShiftGram(w *lin.Matrix, m int) {
	n := w.Rows
	norm2sq := 0.0
	for i := 0; i < n; i++ {
		if d := w.At(i, i); d > 0 {
			norm2sq += d
		}
	}
	s := 11 * float64(m*n+n*(n+1)) * lin.Eps * norm2sq
	for i := 0; i < n; i++ {
		w.Set(i, i, w.At(i, i)+s)
	}
}

// illConditioned wraps a failed Cholesky of the (shifted) Gram matrix.
func illConditioned(err error, shifted bool) error {
	if shifted {
		return fmt.Errorf("%w: shifted Gram still indefinite: %w", ErrIllConditioned, err)
	}
	return fmt.Errorf("%w: %w", ErrIllConditioned, err)
}

// CholeskyQR2 computes A = Q·R by two CholeskyQR passes (Algorithm 5).
// When κ(A) ≲ 1/√ε, Q is orthogonal to working accuracy — as good as
// Householder QR.
func CholeskyQR2(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return intoNewQ(a, func(q *lin.Matrix) (*lin.Matrix, error) { return cqr2(a, q, workers) })
}

// cqr2 is CholeskyQR2 from a into q: the first pass reads a, the second
// runs in place on q. q == a factors an owned matrix with no copy at all.
func cqr2(a, q *lin.Matrix, workers int) (r *lin.Matrix, err error) {
	r1, err := pass(a, q, workers, false)
	if err != nil {
		return nil, err
	}
	if r, err = pass(q, q, workers, false); err != nil {
		return nil, err
	}
	lin.Trmm(lin.Right, lin.Upper, false, r1, r) // R = R2·R1
	return r, nil
}

// ShiftedCholeskyQR performs one CholeskyQR pass on the shifted Gram
// matrix AᵀA + sI, which is positive definite for any A when the shift
// follows Fukaya et al. (see ShiftGram). The resulting Q is far from
// orthogonal but has condition number small enough for CholeskyQR2 to
// finish the job.
func ShiftedCholeskyQR(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return intoNewQ(a, func(q *lin.Matrix) (*lin.Matrix, error) { return pass(a, q, workers, true) })
}

// ShiftedCQR3 is the unconditionally stable three-pass variant the
// paper's §V highlights as future work: one shifted CholeskyQR pass to
// tame the conditioning, then CholeskyQR2 on the result. It succeeds for
// κ(A) up to ~1/ε where plain CQR2 breaks down at ~1/√ε.
func ShiftedCQR3(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	q, r1, err := ShiftedCholeskyQR(a, workers)
	if err != nil {
		return nil, nil, err
	}
	if r, err = cqr2(q, q, workers); err != nil {
		return nil, nil, err
	}
	lin.Trmm(lin.Right, lin.Upper, false, r1, r) // R = (R3·R2)·R1
	return q, r, nil
}

// CanCQR2Handle reports the §I stability criterion: CholeskyQR2 delivers
// Householder-level orthogonality when κ(A) = O(1/√ε).
func CanCQR2Handle(cond float64) bool {
	return cond < 1/math.Sqrt(lin.Eps)/8
}
