// Package mm3d implements the paper's Algorithm 1: a 3D SUMMA variant
// over a cubic processor grid in which both operands live cyclically
// distributed on every 2D slice and the product is Allreduced over the
// depth dimension so each slice again holds a replicated copy. It also
// provides the distributed Transpose used by CFR3D.
//
// Nothing here allocates per call: results and temporaries come from the
// cube's workspace (grid.Workspace). Multiply and Transpose take their
// result's slot there themselves; MultiplyInto and TransposeInto write
// into one the caller took.
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
	if aLocal.Cols != bLocal.Rows {
		return nil, fmt.Errorf("mm3d: inner dimensions %d and %d differ", aLocal.Cols, bLocal.Rows)
	}
	dst := workspace(cb, aLocal, bLocal).Matrix(aLocal.Rows, bLocal.Cols)
	return dst, MultiplyInto(cb, dst, aLocal, bLocal, false, workers)
}

// workspace is the cube's workspace; if this product is the first to ask
// for it, it gets room for the result and the temporaries below.
func workspace(cb *grid.Cube, a, b *lin.Matrix) *grid.Workspace {
	words := 2*a.Rows*b.Cols + b.Rows*b.Cols
	if a.Cols != b.Cols {
		words += a.Rows * a.Cols // the copy of A's block cannot share the result's slot
	}
	return cb.Workspace(int64(words))
}

// MultiplyInto is Multiply writing the product into dst, a compact
// aLocal.Rows × bLocal.Cols matrix the caller owns. dst may be aLocal
// itself — the product then replaces its left operand — but may not
// otherwise share storage with an operand. triangular marks a
// triangular right operand (R⁻¹, or a triangular × triangular product):
// identical communication and numbers, but the local multiply is charged
// at the TRMM rate (half the GEMM flops).
func MultiplyInto(cb *grid.Cube, dst, aLocal, bLocal *lin.Matrix, triangular bool, workers int) error {
	if aLocal.Cols != bLocal.Rows {
		return fmt.Errorf("mm3d: inner dimensions %d and %d differ", aLocal.Cols, bLocal.Rows)
	}
	if dst.Rows != aLocal.Rows || dst.Cols != bLocal.Cols {
		return fmt.Errorf("mm3d: %dx%d destination for a %dx%d product", dst.Rows, dst.Cols, aLocal.Rows, bLocal.Cols)
	}
	p := cb.Comm.Proc()
	ws := workspace(cb, aLocal, bLocal)
	defer ws.Release(ws.Mark())

	// w and y are only read: on a broadcast root they are the operands
	// themselves (dist's ownership rule). Off the root the copy of A's
	// block lands in dst whenever the two have one shape: dst is free
	// until the Allreduce, by which time the copy has been multiplied
	// and is dead — as is this rank's own aLocal, which only the root
	// ever reads, so that dst may be aLocal.
	wSlot := dst
	if aLocal.Cols != dst.Cols {
		wSlot = ws.Matrix(aLocal.Rows, aLocal.Cols)
	}
	w, err := dist.Bcast(cb.XComm, cb.Z, aLocal, wSlot, aLocal.Rows, aLocal.Cols)
	if err != nil {
		return err
	}
	y, err := dist.Bcast(cb.YComm, cb.Z, bLocal, ws.Matrix(bLocal.Rows, bLocal.Cols), bLocal.Rows, bLocal.Cols)
	if err != nil {
		return err
	}

	if workers < 1 {
		workers = 1
	}
	z := ws.Matrix(w.Rows, y.Cols)
	lin.GemmParallel(workers, false, false, 1, w, y, 0, z)
	flops := lin.GemmFlops(w.Rows, y.Cols, w.Cols)
	if triangular {
		// One operand is triangular: a TRMM-class multiply touches half
		// the elements, which is how the paper's 4mn² + (5/3)n³ critical
		// path counts the Q = A·R⁻¹ and R₂·R₁ steps.
		flops /= 2
	}
	if err := p.Compute(flops); err != nil {
		return err
	}

	_, err = dist.Allreduce(cb.ZComm, z, dst)
	return err
}

// Transpose returns this rank's cyclic block of the global transpose of a
// square matrix: the transpose-partner's block, locally transposed (the
// paper's Transpose(A, Π[y, x, z]) step, cost δ(P)(α + n·β)). The operand
// must be square globally, so local blocks are square too.
func Transpose(cb *grid.Cube, local *lin.Matrix) (*lin.Matrix, error) {
	if local.Rows != local.Cols {
		return nil, fmt.Errorf("mm3d: transpose needs square local blocks, got %dx%d", local.Rows, local.Cols)
	}
	dst := cb.Workspace(int64(2*local.Rows*local.Cols)).Matrix(local.Cols, local.Rows)
	return dst, TransposeInto(cb, dst, local)
}

// TransposeInto is Transpose writing the block into dst, a compact
// matrix of local's shape the caller owns that does not overlap local.
// Each rank transposes its own block and the partners swap the results,
// which are then in place as they arrive; local may be a view.
func TransposeInto(cb *grid.Cube, dst, local *lin.Matrix) error {
	if local.Rows != local.Cols {
		return fmt.Errorf("mm3d: transpose needs square local blocks, got %dx%d", local.Rows, local.Cols)
	}
	ws := cb.Workspace(int64(2 * local.Rows * local.Cols))
	defer ws.Release(ws.Mark())
	t := ws.Matrix(local.Cols, local.Rows)
	local.TransposeInto(t)
	_, err := dist.Exchange(cb.Slice, cb.TransposePartner(), t, dst)
	return err
}
