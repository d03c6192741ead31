package main

import (
	"fmt"
	"math"

	cacqr "cacqr"
	"cacqr/internal/lin"
)

// Verification tolerances: every checked op must meet them or it counts
// as failed.
const (
	tolOrth  = 1e-12 // ‖QᵀQ − I‖_F
	tolResid = 1e-12 // ‖A − QR‖_F / ‖A‖_F
	tolSolve = 1e-8  // ‖x − x_ref‖ / ‖x_ref‖ against the Householder reference
)

// wellConditioned is the generator of the compute workloads' inputs:
// cacqr.RandomMatrix with column j scaled by cond^(−j/(n−1)), so that
// κ₂ is about cond (within the small κ of a tall random matrix) at the
// cost of one pass over the data. cacqr.RandomWithCond, which fixes the
// singular values exactly, needs a Householder QR that at 8192×128
// takes forty times longer than the op being measured; it is kept for
// serve-http's ill class, where the spectrum matters.
func wellConditioned(m, n int, cond float64, seed int64) *cacqr.Dense {
	a := cacqr.RandomMatrix(m, n, seed)
	for j := 1; j < n; j++ {
		s := math.Pow(cond, -float64(j)/float64(n-1))
		for i := 0; i < m; i++ {
			a.Data[i*n+j] *= s
		}
	}
	return a
}

// asLin views a Dense as a lin.Matrix without copying.
func asLin(d *cacqr.Dense) *lin.Matrix {
	return &lin.Matrix{Rows: d.Rows, Cols: d.Cols, Stride: d.Cols, Data: d.Data}
}

// qrErrors measures the factorization contract. workers = 0 uses every
// core, so that checking a tall Q costs less than producing it;
// workers = 1 is for callers that already check many small items side
// by side.
func qrErrors(a, q, r *lin.Matrix, workers int) (orth, resid float64) {
	g := lin.SyrkNewParallel(workers, q)
	for i := 0; i < g.Rows; i++ {
		g.Data[i*g.Stride+i]--
	}
	d := a.Clone()
	lin.GemmParallel(workers, false, false, -1, q, r, 1, d)
	return lin.FrobeniusNorm(g), lin.FrobeniusNorm(d) / lin.FrobeniusNorm(a)
}

// checkQR verifies one factorization: shapes, Q orthonormal, A = QR,
// R upper triangular. It returns the two error norms for reporting.
func checkQR(a, q, r *lin.Matrix, workers int) (orth, resid float64, err error) {
	if q.Rows != a.Rows || q.Cols != a.Cols || r.Rows != a.Cols || r.Cols != a.Cols {
		return 0, 0, fmt.Errorf("factor shapes %dx%d, %dx%d for a %dx%d input", q.Rows, q.Cols, r.Rows, r.Cols, a.Rows, a.Cols)
	}
	orth, resid = qrErrors(a, q, r, workers)
	switch {
	case !(orth <= tolOrth): // also catches NaN
		err = fmt.Errorf("orthogonality %.3g exceeds %.0e", orth, tolOrth)
	case !(resid <= tolResid):
		err = fmt.Errorf("residual %.3g exceeds %.0e", resid, tolResid)
	case !r.IsUpperTriangular(0):
		err = fmt.Errorf("R is not upper triangular")
	}
	return orth, resid, err
}

// checkDenseQR is checkQR on the public exchange type.
func checkDenseQR(a, q, r *cacqr.Dense, workers int) (orth, resid float64, err error) {
	if q == nil || r == nil {
		return 0, 0, fmt.Errorf("missing factor")
	}
	return checkQR(asLin(a), asLin(q), asLin(r), workers)
}

// checkSolution compares a least-squares solution with the reference.
func checkSolution(x, ref []float64) error {
	if len(x) != len(ref) {
		return fmt.Errorf("solution has %d entries, want %d", len(x), len(ref))
	}
	var diff, norm float64
	for i := range ref {
		diff += (x[i] - ref[i]) * (x[i] - ref[i])
		norm += ref[i] * ref[i]
	}
	if rel := math.Sqrt(diff / norm); !(rel <= tolSolve) {
		return fmt.Errorf("solution off the Householder reference by %.3g, limit %.0e", rel, tolSolve)
	}
	return nil
}
