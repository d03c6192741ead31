// Package mm3d implements the paper's Algorithm 1: a 3D SUMMA variant
// over a cubic processor grid in which both operands live cyclically
// distributed on every 2D slice and the product is Allreduced over the
// depth dimension so each slice again holds a replicated copy. It also
// provides the distributed Transpose used by CFR3D.
package mm3d

import (
	"fmt"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
)

// Multiply computes C = A·B over the cube (Algorithm 1).
//
// aLocal is this rank's cyclic block of A: its columns are A's columns
// distributed over the cube's x dimension; its rows may be any row
// distribution that is identical across slices (CFR3D passes square
// cyclic blocks; CA-CQR passes tall blocks whose rows are spread over the
// full d dimension). bLocal is the cyclic block of B over (y, x). Both
// operands must be replicated on every slice. The result has aLocal's
// rows and bLocal's columns and is replicated on every slice.
//
//	line 1: Bcast A along Π[:, y, z] with root x = z
//	line 2: Bcast B along Π[x, :, z] with root y = z
//	line 3: local multiply
//	line 4: Allreduce along Π[x, y, :]
//
// workers bounds the goroutines the local multiply may use on top of the
// simulated rank's own goroutine (≤ 1 = serial, the default for
// simulated grids where the ranks already saturate the host). It changes
// wall-clock only: results and charged flops are identical.
func Multiply(cb *grid.Cube, aLocal, bLocal *lin.Matrix, workers int) (*lin.Matrix, error) {
	return multiply(cb, aLocal, bLocal, false, workers)
}

// MultiplyTri is Multiply for a triangular right operand (R⁻¹, or a
// triangular × triangular product): identical communication, but the
// local multiply is charged at the TRMM rate (half the GEMM flops).
func MultiplyTri(cb *grid.Cube, aLocal, bLocal *lin.Matrix, workers int) (*lin.Matrix, error) {
	return multiply(cb, aLocal, bLocal, true, workers)
}

func multiply(cb *grid.Cube, aLocal, bLocal *lin.Matrix, triangular bool, workers int) (*lin.Matrix, error) {
	if aLocal.Cols != bLocal.Rows {
		return nil, fmt.Errorf("mm3d: inner dimensions %d and %d differ", aLocal.Cols, bLocal.Rows)
	}
	p := cb.Comm.Proc()

	// w and y are only read: on a broadcast root they are the operands
	// themselves (dist's ownership rule).
	w, err := dist.Bcast(cb.XComm, cb.Z, aLocal, aLocal.Rows, aLocal.Cols)
	if err != nil {
		return nil, err
	}
	y, err := dist.Bcast(cb.YComm, cb.Z, bLocal, bLocal.Rows, bLocal.Cols)
	if err != nil {
		return nil, err
	}

	if workers < 1 {
		workers = 1
	}
	z := lin.NewMatrix(w.Rows, y.Cols)
	lin.GemmParallel(workers, false, false, 1, w, y, 0, z)
	flops := lin.GemmFlops(w.Rows, y.Cols, w.Cols)
	if triangular {
		// One operand is triangular: a TRMM-class multiply touches half
		// the elements, which is how the paper's 4mn² + (5/3)n³ critical
		// path counts the Q = A·R⁻¹ and R₂·R₁ steps.
		flops /= 2
	}
	if err := p.Compute(flops); err != nil {
		return nil, err
	}

	return dist.Allreduce(cb.ZComm, z)
}

// Transpose returns this rank's cyclic block of the global transpose of a
// square matrix: the transpose-partner's block, locally transposed (the
// paper's Transpose(A, Π[y, x, z]) step, cost δ(P)(α + n·β)). The operand
// must be square globally, so local blocks are square too.
func Transpose(cb *grid.Cube, local *lin.Matrix) (*lin.Matrix, error) {
	if local.Rows != local.Cols {
		return nil, fmt.Errorf("mm3d: transpose needs square local blocks, got %dx%d", local.Rows, local.Cols)
	}
	m, err := dist.Exchange(cb.Slice, cb.TransposePartner(), local)
	if err != nil {
		return nil, err
	}
	return m.T(), nil
}
