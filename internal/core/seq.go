package core

import "cacqr/internal/lin"

// resident is the Tall of a matrix held in memory: a is what the next
// Gram and apply read, q what every apply writes. While a differs from q
// the caller's matrix is still untouched; after the first apply both
// name the owned Q and the later passes run in place.
type resident struct {
	Replicated
	a, q    *lin.Matrix
	workers int
}

func (t *resident) Gram() error {
	t.G = lin.SyrkNewParallel(t.workers, t.a)
	return nil
}

func (t *resident) Factor(m int, shifted, first bool) error {
	if _, err := t.Step(m, shifted, first); err != nil {
		return err
	}
	t.apply()
	return nil
}

// qBlockRows is the row block of the out-of-place Q update. It is a
// multiple of the lin kernels' tile height, so the blocks see the same
// tiles — and produce the same bits — as one update of the whole matrix.
const qBlockRows = 256

// apply computes Q = X·Yᵀ for the step's Y as a triangular multiply: Y
// is lower triangular, so the dense GEMM formulation would spend half
// its flops multiplying by exact zeros.
func (t *resident) apply() {
	if t.a == t.q {
		lin.TrmmParallel(t.workers, lin.Right, lin.Lower, true, t.Y, t.q)
		return
	}
	// Out of place: each block is copied and updated while it is still in
	// cache, instead of cloning all of A and then sweeping it again.
	m, n := t.a.Rows, t.a.Cols
	lin.BatchApply(t.workers, (m+qBlockRows-1)/qBlockRows, func(i int) {
		lo := i * qBlockRows
		blk := t.q.View(lo, 0, min(qBlockRows, m-lo), n)
		blk.CopyFrom(t.a.View(lo, 0, blk.Rows, n))
		lin.Trmm(lin.Right, lin.Lower, true, t.Y, blk)
	})
	t.a = t.q
}

// sequential runs the ladder on an in-memory matrix, which is never
// modified: Q is a new matrix.
func sequential(a *lin.Matrix, workers, passes int, shifted bool) (q, r *lin.Matrix, err error) {
	if a.Rows < a.Cols {
		return nil, nil, lin.ErrShape
	}
	t := &resident{a: a, q: lin.NewMatrix(a.Rows, a.Cols), workers: workers}
	if _, err := Ladder(t, a.Rows, passes, shifted); err != nil {
		return nil, nil, err
	}
	return t.q, t.R, nil
}

// CholeskyQR computes the reduced factorization A = Q·R by one CholeskyQR
// pass (Algorithm 4): W = AᵀA, R = chol(W)ᵀ, Q = A·R⁻¹. The orthogonality
// error of Q grows as Θ(κ(A)²·ε); the residual stays O(ε). A is never
// modified.
//
// workers bounds the goroutines the level-3 kernels may use (0 =
// GOMAXPROCS, 1 = serial); results are identical for any value.
func CholeskyQR(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return sequential(a, workers, 1, false)
}

// CholeskyQR2 computes A = Q·R by two CholeskyQR passes (Algorithm 5).
// When κ(A) ≲ 1/√ε, Q is orthogonal to working accuracy — as good as
// Householder QR.
func CholeskyQR2(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return sequential(a, workers, 2, false)
}

// ShiftedCholeskyQR performs one CholeskyQR pass on the shifted Gram
// matrix AᵀA + sI (see Replicated.Step).
func ShiftedCholeskyQR(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return sequential(a, workers, 1, true)
}

// ShiftedCQR3 is the unconditionally stable three-pass variant the
// paper's §V highlights as future work: one shifted CholeskyQR pass to
// tame the conditioning, then CholeskyQR2 on the result. It succeeds for
// κ(A) up to ~1/ε where plain CQR2 breaks down at ~1/√ε.
func ShiftedCQR3(a *lin.Matrix, workers int) (q, r *lin.Matrix, err error) {
	return sequential(a, workers, 3, true)
}
