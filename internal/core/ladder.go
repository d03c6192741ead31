// Package core implements the paper's contribution, the CholeskyQR
// family of QR factorizations, as one routine, Ladder: form the n×n Gram
// matrix of the iterate, factor it, multiply the iterate by the inverse
// factor, fold R = Rᵢ·(Rᵢ₋₁⋯R₁), repeat. The variants differ only in
// where the tall matrix and its n×n Gram matrix live, and so in how the
// Gram matrix gets summed and factored, which is what the Tall interface
// abstracts. Four drivers call Ladder, through three adapters:
//
//   - resident (seq.go): the matrix is in memory, the Gram matrix is one
//     SYRK, nothing is charged — sequential CholeskyQR/CholeskyQR2
//     (Algorithms 4–5) and the shifted CholeskyQR3 the paper's
//     conclusion points to. The sequential drivers run it with the
//     kernels fanned out over the pool; the batched drivers (batch.go)
//     run it serially per item, one item per pool worker.
//   - internal/stream's driver: the matrix arrives as row panels, the
//     Gram matrix is a running sum over one scan of the source, and the
//     inverses are kept to be replayed on the next scan.
//   - cube (cacqr.go): CA-CQR, CA-CQR2 and the shifted CA-CQR3
//     (Algorithms 8–9) over a tunable c × d × c grid, of which c = 1 is
//     the 1D algorithm (Algorithms 6–7). The Gram matrix stays
//     distributed over a subcube: gramProduct (Algorithm 8 lines 1–5)
//     forms it, cfr3d.Factor factors it, cfr3d.ApplyInvT applies R⁻¹ and
//     an MM3D folds R. Each line runs under the phase costmodel names
//     it (Proc.SetPhase, which on a traced rank is also the stage
//     span), and every charge sits on a line, so a run on the simulated
//     transport yields exact per-processor, per-line α-β-γ costs
//     alongside the factors. The §V panel variant (panel.go) runs
//     CA-CQR2 once per panel, forms its trailing products with
//     gramProduct too and charges the trailing update to a line of its
//     own.
//
// The first two hold the Gram matrix whole and share one n×n step,
// Replicated; all three share the shift's formula, shiftDiagonal. Every
// grid runs on any transport.Comm it is given (simmpi or tcpnet), and
// whichever adapter factors the Gram matrix, a breakdown reaches the
// caller as ErrIllConditioned wrapping lin.ErrNotPositiveDefinite.
package core

import (
	"errors"
	"fmt"
	"math"

	"cacqr/internal/lin"
)

// ErrIllConditioned is returned when CholeskyQR's Gram matrix is not
// numerically positive definite, which happens when κ(A)² overflows the
// precision (the §I condition κ(A) ≲ 1/√ε). Every driver of the family
// returns it — sequential, batched, streamed, grid and panel — and it
// wraps the lin.ErrNotPositiveDefinite of the Cholesky that failed.
var ErrIllConditioned = errors.New("core: matrix too ill-conditioned for CholeskyQR (try ShiftedCQR3)")

// Tall is a tall m×n matrix wherever it lives — in memory, spread over
// the ranks of a communicator or a grid, or on disk — together with its
// n×n side, reduced to what a CholeskyQR pass needs of them. The matrix
// it stands for is the current iterate X: A at first, then A·R₁⁻¹, and so
// on; the adapter also keeps the running R.
type Tall interface {
	// Gram forms G = XᵀX, wherever the adapter keeps it.
	Gram() error
	// Orth returns ‖G−I‖_F, or NaN where measuring it would cost
	// communication the algorithm does not pay.
	Orth() float64
	// Factor factors G = RᵢᵀRᵢ — first adding the shift of shiftDiagonal
	// to G when shifted is set — replaces X by X·Rᵢ⁻¹ and makes the
	// running R Rᵢ·R, or Rᵢ on the first pass. A G that does not factor
	// fails with an error wrapping lin.ErrNotPositiveDefinite.
	Factor(m int, shifted, first bool) error
}

// Ladder runs passes CholeskyQR passes over t, an m-row matrix, the
// first on the shifted Gram matrix when shifted is set: one pass is
// Algorithm 4/6/8, two are CholeskyQR2 (Algorithm 5/7/9), three with the
// shift ShiftedCQR3. On return t's iterate is Q and its running R the
// n×n upper factor with A = Q·R. orth is t's Orth of the Gram matrix the
// final pass factored, that is the measured departure from
// orthonormality of the iterate that entered it (of A itself when passes
// is 1). This is the one place a breakdown becomes ErrIllConditioned.
func Ladder(t Tall, m, passes int, shifted bool) (orth float64, err error) {
	for i := 0; i < passes; i++ {
		if err := t.Gram(); err != nil {
			return 0, err
		}
		if i == passes-1 {
			orth = t.Orth()
		}
		err := t.Factor(m, shifted && i == 0, i == 0)
		switch {
		case err == nil:
		case !errors.Is(err, lin.ErrNotPositiveDefinite) || errors.Is(err, ErrIllConditioned):
			// A failure of the transport, or another rank's breakdown
			// that reached this one already typed.
			return 0, err
		case shifted && i == 0:
			return 0, fmt.Errorf("%w: shifted Gram still indefinite: %w", ErrIllConditioned, err)
		default:
			return 0, fmt.Errorf("%w: %w", ErrIllConditioned, err)
		}
	}
	return orth, nil
}

// Replicated is the n×n side of a Tall whose Gram matrix G is whole
// where the step runs — in memory or beside a streamed source. The
// adapter sets G; Step factors it and leaves Y = Rᵢ⁻ᵀ for the adapter
// to apply. Besides the iterate, the step holds at most five n×n
// matrices: G, L, Y, Rᵢ and the running R.
type Replicated struct {
	G, Y, R *lin.Matrix
}

// Orth implements Tall: one sweep over n² numbers, no communication.
func (s *Replicated) Orth() float64 { return offIdentity(s.G) }

// Step is the replicated part of Tall.Factor: (L, Y) = CholInv(G), with
// the shift of Fukaya et al. (the paper's reference [3]) first added to
// G's diagonal in place when shifted is set — which makes G positive
// definite for any input; the Q that results is far from orthogonal but
// well enough conditioned for CholeskyQR2 to finish — then Rᵢ = Lᵀ and
// R = Rᵢ·R by a TRMM. flops is the n×n work to charge: CholInv, and
// after the first pass the fold's (1/3)n³.
func (s *Replicated) Step(m int, shifted, first bool) (flops int64, err error) {
	if shifted {
		shiftDiagonal(s.G, m, s.G.Rows, positiveTrace(s.G))
	}
	l, y, err := lin.CholInv(s.G)
	if err != nil {
		return 0, err
	}
	n := s.G.Rows
	ri := l.T()
	flops = lin.CholFlops(n) + lin.TriInvFlops(n)
	if !first {
		lin.Trmm(lin.Right, lin.Upper, false, s.R, ri)
		flops += lin.TriInvFlops(n) // the paper's (1/3)n³
	}
	s.Y, s.R = y, ri
	return flops, nil
}

// positiveTrace sums the positive entries on g's diagonal: tr(AᵀA) =
// ‖A‖_F² bounds ‖A‖₂² (the shift only needs an upper estimate), or, on
// a square block that holds part of the diagonal, that block's share.
func positiveTrace(g *lin.Matrix) float64 {
	var t float64
	for i := 0; i < g.Rows; i++ {
		if d := g.At(i, i); d > 0 {
			t += d
		}
	}
	return t
}

// shiftDiagonal adds the shift of Fukaya et al. for an m × n A,
// s = 11·(m·n + n·(n+1))·ε·tr(AᵀA), to the diagonal of g: the whole Gram
// matrix, or a square block of it that holds diagonal entries. O(n)
// uncharged work, the one formula the replicated step and the grid
// adapter share.
func shiftDiagonal(g *lin.Matrix, m, n int, trace float64) {
	s := 11 * float64(m*n+n*(n+1)) * lin.Eps * trace
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+s)
	}
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
