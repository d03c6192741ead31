// Package cfr3d implements the paper's Algorithms 2–3: a recursive 3D
// Cholesky factorization that simultaneously produces the lower factor L
// (A = L·Lᵀ) and its inverse Y = L⁻¹, over a cubic processor grid with
// cyclic data distribution.
//
// The recursion halves the matrix until the base-case dimension n_o, at
// which point the panel is Allgathered over the 2D slice and factored
// redundantly by every rank (Algorithm 3 lines 1–3). n_o trades
// synchronization (more levels → more latency) against bandwidth; the
// paper's bandwidth-minimizing choice is n_o = n/P^{2/3}.
//
// InverseDepth reproduces the paper's legend parameter of the same name:
// recursion levels shallower than InverseDepth skip lines 12–14 (the
// explicit formation of Y21 = −Y22·L21·Y11), leaving Y block-diagonal at
// those levels. CA-CQR then applies R⁻¹ by blocked substitution with the
// inverted diagonal blocks, trading two MM3D calls per level for cheaper,
// smaller multiplies (§III-A's "alternate strategy").
package cfr3d

import (
	"fmt"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
)

// Options tune the factorization.
type Options struct {
	// BaseSize is n_o, the dimension at which recursion stops. 0 selects
	// the paper's bandwidth-optimal max(E, n/E²) for an edge-E cube.
	BaseSize int
	// InverseDepth is the number of top recursion levels that skip the
	// formation of the off-diagonal inverse block Y21.
	InverseDepth int
	// Workers bounds the goroutines each rank's local level-3 kernels
	// may use (≤ 1 = serial, the right default when many simulated ranks
	// already share the host). Results are identical for any value.
	Workers int
}

// Result carries the distributed factors.
type Result struct {
	// L is the cyclic local block of the lower-triangular factor.
	L *lin.Matrix
	// Y is the cyclic local block of L⁻¹ (block-diagonal only above
	// InverseDepth).
	Y *lin.Matrix
	// N is the global dimension.
	N int
	// InverseDepth echoes the option used, which consumers of Y need in
	// order to know which off-diagonal blocks were formed.
	InverseDepth int
	// BaseSize echoes the resolved n_o.
	BaseSize int
}

// Factor runs CFR3D on the SPD matrix whose cyclic local block is aLocal
// (n × n globally, distributed over the cube's slice and replicated
// across slices).
func Factor(cb *grid.Cube, aLocal *lin.Matrix, n int, opts Options) (*Result, error) {
	if n%cb.E != 0 {
		return nil, fmt.Errorf("cfr3d: dimension %d not divisible by cube edge %d", n, cb.E)
	}
	if aLocal.Rows != n/cb.E || aLocal.Cols != n/cb.E {
		return nil, fmt.Errorf("cfr3d: local block %dx%d does not match n=%d on edge-%d cube",
			aLocal.Rows, aLocal.Cols, n, cb.E)
	}
	base := opts.BaseSize
	if base <= 0 {
		base = n / (cb.E * cb.E)
		if base < cb.E {
			base = cb.E
		}
	}
	if base%cb.E != 0 && base != n {
		// The base-case Allgather reassembles an n_o×n_o cyclic panel, so
		// E must divide n_o. Round up.
		base += cb.E - base%cb.E
	}
	if opts.InverseDepth < 0 {
		return nil, fmt.Errorf("cfr3d: negative InverseDepth %d", opts.InverseDepth)
	}
	l, y, err := factor(cb, aLocal, n, base, 0, opts.InverseDepth, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &Result{L: l, Y: y, N: n, InverseDepth: opts.InverseDepth, BaseSize: base}, nil
}

// factor is the recursive body; depth counts levels from the top.
func factor(cb *grid.Cube, aLocal *lin.Matrix, n, base, depth, invDepth, workers int) (lLocal, yLocal *lin.Matrix, err error) {
	// Base case also triggers when the matrix can no longer be halved
	// cleanly over the grid (n/2 must stay divisible by E).
	if n <= base || (n/2)%cb.E != 0 || n%2 != 0 {
		return baseCase(cb, aLocal, n)
	}
	p := cb.Comm.Proc()
	half := aLocal.Rows / 2
	a11 := aLocal.View(0, 0, half, half)
	a21 := aLocal.View(half, 0, half, half)
	a22 := aLocal.View(half, half, half, half)

	// Line 5: recurse on A11.
	l11, y11, err := factor(cb, a11.Clone(), n/2, base, depth+1, invDepth, workers)
	if err != nil {
		return nil, nil, err
	}

	// Lines 6–7: L21 = A21·L11⁻ᵀ. When InverseDepth leaves the top
	// levels of Y11 unformed (the sub-call skipped its Y21 blocks for
	// invDepth − depth − 1 levels), apply the inverse by blocked
	// substitution down to the levels where Y11 is complete.
	l21, err := ApplyInvT(cb, a21.Clone(), l11, y11, invDepth-depth-1, false, workers)
	if err != nil {
		return nil, nil, err
	}

	// Lines 8–9: U = L21·L21ᵀ.
	x, err := mm3d.Transpose(cb, l21)
	if err != nil {
		return nil, nil, err
	}
	u, err := mm3d.Multiply(cb, l21, x, workers)
	if err != nil {
		return nil, nil, err
	}

	// Line 10: Z = A22 − U (local axpy).
	z := a22.Clone()
	z.Sub(u)
	if err := p.Compute(lin.AxpyFlops(z.Rows, z.Cols)); err != nil {
		return nil, nil, err
	}

	// Line 11: recurse on the Schur complement.
	l22, y22, err := factor(cb, z, n/2, base, depth+1, invDepth, workers)
	if err != nil {
		return nil, nil, err
	}

	// Lines 12–14: Y21 = −Y22·(L21·Y11), skipped above InverseDepth.
	var y21 *lin.Matrix
	if depth >= invDepth {
		u2, err := mm3d.Multiply(cb, l21, y11, workers)
		if err != nil {
			return nil, nil, err
		}
		negY22 := y22.Clone()
		negY22.Scale(-1)
		if err := p.Compute(int64(negY22.Rows) * int64(negY22.Cols)); err != nil {
			return nil, nil, err
		}
		y21, err = mm3d.Multiply(cb, negY22, u2, workers)
		if err != nil {
			return nil, nil, err
		}
	} else {
		y21 = lin.NewMatrix(half, half)
	}

	lOut := assembleLowerQuadrants(l11, l21, l22)
	yOut := assembleLowerQuadrants(y11, y21, y22)
	return lOut, yOut, nil
}

// ApplyInvT computes X = A·L⁻ᵀ for lower-triangular L whose inverse Y is
// complete except for the off-diagonal blocks of its top k recursion
// levels (Result.Y under InverseDepth k). At k ≤ 0 this is the direct
// multiply by Yᵀ; otherwise it is the §III-A blocked substitution
//
//	X₁ = A₁·L₁₁⁻ᵀ,  X₂ = (A₂ − X₁·L₂₁ᵀ)·L₂₂⁻ᵀ
//
// which costs one extra (smaller) MM3D and transpose per level — the
// flops-for-synchronization trade of the paper's InverseDepth knob. It
// serves both places the paper applies a CFR3D inverse: Algorithm 3
// lines 6–7 (L21 = A21·L11⁻ᵀ, a plain MM3D) and Algorithm 8 line 8
// (Q = A·R⁻¹ with R = Lᵀ), which sets tri to charge the leaf product by
// the triangular Yᵀ at the TRMM rate.
func ApplyInvT(cb *grid.Cube, a, l, y *lin.Matrix, k int, tri bool, workers int) (*lin.Matrix, error) {
	if k <= 0 || l.Rows < 2 || l.Rows%2 != 0 {
		w, err := mm3d.Transpose(cb, y)
		if err != nil {
			return nil, err
		}
		if tri {
			return mm3d.MultiplyTri(cb, a, w, workers)
		}
		return mm3d.Multiply(cb, a, w, workers)
	}
	p := cb.Comm.Proc()
	half := l.Rows / 2
	l11 := l.View(0, 0, half, half).Clone()
	l21 := l.View(half, 0, half, half).Clone()
	l22 := l.View(half, half, half, half).Clone()
	y11 := y.View(0, 0, half, half).Clone()
	y22 := y.View(half, half, half, half).Clone()

	a1 := a.View(0, 0, a.Rows, half).Clone()
	a2 := a.View(0, half, a.Rows, half).Clone()

	x1, err := ApplyInvT(cb, a1, l11, y11, k-1, tri, workers)
	if err != nil {
		return nil, err
	}
	lt, err := mm3d.Transpose(cb, l21)
	if err != nil {
		return nil, err
	}
	t, err := mm3d.Multiply(cb, x1, lt, workers)
	if err != nil {
		return nil, err
	}
	a2.Sub(t)
	if err := p.Compute(lin.AxpyFlops(a2.Rows, a2.Cols)); err != nil {
		return nil, err
	}
	x2, err := ApplyInvT(cb, a2, l22, y22, k-1, tri, workers)
	if err != nil {
		return nil, err
	}
	out := lin.NewMatrix(a.Rows, a.Cols)
	out.View(0, 0, a.Rows, half).CopyFrom(x1)
	out.View(0, half, a.Rows, half).CopyFrom(x2)
	return out, nil
}

// baseCase Allgathers the panel over the slice, factors it redundantly,
// and keeps this rank's cyclic pieces (Algorithm 3 lines 1–3).
func baseCase(cb *grid.Cube, aLocal *lin.Matrix, n int) (lLocal, yLocal *lin.Matrix, err error) {
	p := cb.Comm.Proc()
	e := cb.E
	t := aLocal
	if e > 1 {
		// Slice ordering is y-major (index y·E + x): the cyclic layout's
		// row-major member order with row = y, col = x.
		if t, err = dist.Allgather(cb.Slice, aLocal, n, n, e, e); err != nil {
			return nil, nil, err
		}
	}

	lFull, yFull, err := lin.CholInv(t)
	if err != nil {
		return nil, nil, err
	}
	if err := p.Compute(lin.CholFlops(n) + lin.TriInvFlops(n)); err != nil {
		return nil, nil, err
	}
	if e == 1 {
		return lFull, yFull, nil
	}
	lDist, err := dist.FromGlobal(lFull, e, e, cb.Y, cb.X)
	if err != nil {
		return nil, nil, err
	}
	yDist, err := dist.FromGlobal(yFull, e, e, cb.Y, cb.X)
	if err != nil {
		return nil, nil, err
	}
	return lDist.Local, yDist.Local, nil
}

// assembleLowerQuadrants packs [b11 0; b21 b22] into one local block.
func assembleLowerQuadrants(b11, b21, b22 *lin.Matrix) *lin.Matrix {
	h := b11.Rows
	out := lin.NewMatrix(2*h, 2*h)
	out.View(0, 0, h, h).CopyFrom(b11)
	out.View(h, 0, h, h).CopyFrom(b21)
	out.View(h, h, h, h).CopyFrom(b22)
	return out
}
