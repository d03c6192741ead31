// Package core implements the paper's contribution, the CholeskyQR
// family of QR factorizations, as two pieces of code.
//
// The replicated-Gram family — sequential CholeskyQR/CholeskyQR2
// (Algorithms 4–5), their 1D parallelization (Algorithms 6–7), the
// shifted CholeskyQR3 the paper's conclusion points to, the batched
// throughput drivers and internal/stream's out-of-core driver — is one
// routine, Ladder: form the n×n Gram matrix, factor and invert it
// (Factor), multiply the iterate by the inverse, repeat, and fold
// R = Rᵢ·(Rᵢ₋₁⋯R₁). The variants differ only in where the tall matrix
// lives and so in how its Gram matrix gets summed, which is what the
// Tall interface abstracts. Four drivers call Ladder, through three
// adapters:
//
//   - resident (seq.go): the matrix is in memory, the Gram matrix is one
//     SYRK, nothing is charged. The sequential drivers run it with the
//     kernels fanned out over the pool; the batched drivers (batch.go)
//     run it serially per item, one item per pool worker.
//   - rowBlock (cqr1d.go): each rank of a transport.Comm holds m/P rows;
//     the Gram matrix is a local SYRK plus an Allreduce, and every flop is
//     charged to the rank, so a run on the simulated transport yields
//     exact per-processor α-β-γ costs alongside the factors.
//   - internal/stream's driver: the matrix arrives as row panels, the
//     Gram matrix is a running sum over one scan of the source, and the
//     inverses are kept to be replayed on the next scan.
//
// The grid family — CA-CQR and CA-CQR2 over a tunable c × d × c grid
// (Algorithms 8–9, cacqr.go) and the §V panel variant (panel.go) — is
// its own code: there the Gram matrix stays distributed, the factor
// step is cfr3d.Factor and the fold an MM3D. Both of its members form
// their Gram-pattern products with gramProduct (Algorithm 8 lines 1–5)
// and apply R⁻¹ with cfr3d.ApplyInvT. It runs on any transport.Comm
// (simmpi or tcpnet) and charges every line to its Table V phase.
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

// Tall is a tall m×n matrix wherever it lives — in memory, spread over
// the ranks of a communicator, or on disk — reduced to what a
// CholeskyQR pass needs of it. The matrix it stands for is the current
// iterate: A at first, then A·R₁⁻¹, and so on.
type Tall interface {
	// Gram returns the complete n×n Gram matrix XᵀX of the iterate X.
	// The result is the caller's to overwrite.
	Gram() (*lin.Matrix, error)
	// ApplyInv replaces the iterate X by X·Yᵀ, Y lower triangular.
	ApplyInv(y *lin.Matrix) error
	// Charge accounts flops of replicated n×n work the ladder did
	// itself (CholInv, the R fold).
	Charge(flops int64) error
}

// Ladder runs passes CholeskyQR passes over t, an m-row matrix, the
// first on the shifted Gram matrix when shifted is set: one pass is
// Algorithm 4/6, two are CholeskyQR2 (Algorithm 5/7), three with the
// shift ShiftedCQR3. On return t's iterate is Q and r the n×n upper
// factor with A = Q·r. orth is ‖G−I‖_F of the Gram matrix G the final
// pass factored, that is the measured departure from orthonormality of
// the iterate that entered it (of A itself when passes is 1); it costs
// one sweep over n² numbers and no communication. Besides what t keeps,
// the ladder holds at most five n×n matrices: the Gram matrix, L, Y, Rᵢ
// and the running R.
func Ladder(t Tall, m, passes int, shifted bool) (r *lin.Matrix, orth float64, err error) {
	for i := 0; i < passes; i++ {
		g, err := t.Gram()
		if err != nil {
			return nil, 0, err
		}
		if i == passes-1 {
			orth = offIdentity(g)
		}
		ri, y, err := Factor(g, m, shifted && i == 0)
		if err != nil {
			return nil, 0, err
		}
		if err := t.Charge(lin.CholFlops(g.Rows) + lin.TriInvFlops(g.Rows)); err != nil {
			return nil, 0, err
		}
		if err := t.ApplyInv(y); err != nil {
			return nil, 0, err
		}
		if r != nil {
			if err := t.Charge(lin.TriInvFlops(g.Rows)); err != nil { // the paper's (1/3)n³
				return nil, 0, err
			}
		}
		r = fold(r, ri)
	}
	return r, orth, nil
}

// Factor is the replicated step of one CholeskyQR pass on the Gram
// matrix g of an m-row matrix: (L, Y) = CholInv(g), returned as R = Lᵀ
// and Y = L⁻¹ = R⁻ᵀ. shifted first adds the shift of Fukaya et al. (the
// paper's reference [3]) to g's diagonal in place, which makes g
// positive definite for any input; the Q that results is far from
// orthogonal but well enough conditioned for CholeskyQR2 to finish. A
// Gram matrix that will not factor is ErrIllConditioned.
func Factor(g *lin.Matrix, m int, shifted bool) (r, y *lin.Matrix, err error) {
	if shifted {
		shiftGram(g, m)
	}
	l, y, err := lin.CholInv(g)
	if err != nil {
		if shifted {
			return nil, nil, fmt.Errorf("%w: shifted Gram still indefinite: %w", ErrIllConditioned, err)
		}
		return nil, nil, fmt.Errorf("%w: %w", ErrIllConditioned, err)
	}
	return l.T(), y, nil
}

// shiftGram adds s = 11·(m·n + n·(n+1))·ε·‖A‖₂² to the diagonal of the
// Gram matrix g = AᵀA of an m-row A, with the trace bounding
// ‖A‖₂² ≤ ‖A‖_F² (the bound only needs an upper estimate): O(n)
// uncharged work on a matrix that is already complete, so no variant
// communicates for it.
func shiftGram(g *lin.Matrix, m int) {
	n := g.Rows
	norm2sq := 0.0
	for i := 0; i < n; i++ {
		if d := g.At(i, i); d > 0 {
			norm2sq += d
		}
	}
	s := 11 * float64(m*n+n*(n+1)) * lin.Eps * norm2sq
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+s)
	}
}

// fold returns the R of the passes so far, Rᵢ·(Rᵢ₋₁⋯R₁), given the
// running product r (nil before the first pass) and the new pass's ri,
// which it overwrites.
func fold(r, ri *lin.Matrix) *lin.Matrix {
	if r != nil {
		lin.Trmm(lin.Right, lin.Upper, false, r, ri)
	}
	return ri
}

// offIdentity returns ‖G − I‖_F.
func offIdentity(g *lin.Matrix) float64 {
	var s float64
	for i := 0; i < g.Rows; i++ {
		for j, v := range g.Data[i*g.Stride : i*g.Stride+g.Cols] {
			if i == j {
				v--
			}
			s += v * v
		}
	}
	return math.Sqrt(s)
}
