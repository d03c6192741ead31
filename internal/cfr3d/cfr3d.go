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
// across slices). L and Y are taken from the cube's workspace, and every
// temporary of the recursion is taken there and given back.
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
	// Asked for first on a bare cube, the workspace gets L, Y, the
	// recursion's temporaries (under two more blocks: each level's are a
	// quarter of the one above) and the base case's four whole panels,
	// at the dimension the halving stops at.
	h, stop := n/cb.E, n
	for !isBase(cb, stop, base) {
		stop /= 2
	}
	ws := cb.Workspace(int64(4*h*h + 4*stop*stop))
	l, y := ws.Matrix(h, h), ws.Matrix(h, h)
	f := factorization{cb: cb, ws: ws, base: base, invDepth: opts.InverseDepth, workers: opts.Workers}
	if err := f.factor(aLocal, l, y, n, 0); err != nil {
		return nil, err
	}
	return &Result{L: l, Y: y, N: n, InverseDepth: opts.InverseDepth, BaseSize: base}, nil
}

// factorization is what every level of one Factor call shares.
type factorization struct {
	cb       *grid.Cube
	ws       *grid.Workspace
	base     int
	invDepth int
	workers  int
}

// factor is the recursive body: it factors the n × n matrix whose local
// block is a (a view, below the top) and writes the factors' blocks into
// l and y, views of the top level's L and Y, whatever those held. depth
// counts levels from the top.
func (f factorization) factor(a, l, y *lin.Matrix, n, depth int) error {
	cb, ws := f.cb, f.ws
	if isBase(cb, n, f.base) {
		return f.baseCase(a, l, y, n)
	}
	defer ws.Release(ws.Mark())
	p := cb.Comm.Proc()
	half := a.Rows / 2
	quadrants := func(m *lin.Matrix) (m11, m21, m22 *lin.Matrix) {
		return ws.View(m, 0, 0, half, half), ws.View(m, half, 0, half, half), ws.View(m, half, half, half, half)
	}
	a11, a21, a22 := quadrants(a)
	l11, l21, l22 := quadrants(l)
	y11, y21, y22 := quadrants(y)
	ws.View(l, 0, half, half, half).Zero()
	ws.View(y, 0, half, half, half).Zero()

	// Line 5: recurse on A11.
	if err := f.factor(a11, l11, y11, n/2, depth+1); err != nil {
		return err
	}

	// Lines 6–7: L21 = A21·L11⁻ᵀ. When InverseDepth leaves the top
	// levels of Y11 unformed (the sub-call skipped its Y21 blocks for
	// invDepth − depth − 1 levels), apply the inverse by blocked
	// substitution down to the levels where Y11 is complete. The
	// products below read the compact copy.
	l21c := ws.Matrix(half, half)
	if err := ApplyInvT(cb, l21c, a21, l11, y11, f.invDepth-depth-1, false, f.workers); err != nil {
		return err
	}
	l21.CopyFrom(l21c)

	// Lines 8–9: U = L21·L21ᵀ.
	schur := ws.Mark()
	x := ws.Matrix(half, half)
	if err := mm3d.TransposeInto(cb, x, l21c); err != nil {
		return err
	}
	z := ws.Matrix(half, half)
	if err := mm3d.MultiplyInto(cb, z, l21c, x, false, f.workers); err != nil {
		return err
	}

	// Line 10: Z = A22 − U (local axpy).
	z.SubFrom(a22)
	if err := p.Compute(lin.AxpyFlops(z.Rows, z.Cols)); err != nil {
		return err
	}

	// Line 11: recurse on the Schur complement.
	if err := f.factor(z, l22, y22, n/2, depth+1); err != nil {
		return err
	}
	ws.Release(schur)

	// Lines 12–14: Y21 = −Y22·(L21·Y11), skipped above InverseDepth.
	if depth < f.invDepth {
		y21.Zero()
		return nil
	}
	u2 := ws.Matrix(half, half)
	if err := mm3d.MultiplyInto(cb, u2, l21c, y11, false, f.workers); err != nil {
		return err
	}
	negY22 := ws.Matrix(half, half)
	negY22.CopyFrom(y22)
	negY22.Scale(-1)
	if err := p.Compute(int64(negY22.Rows) * int64(negY22.Cols)); err != nil {
		return err
	}
	// In place: the product replaces its left operand.
	if err := mm3d.MultiplyInto(cb, negY22, negY22, u2, false, f.workers); err != nil {
		return err
	}
	y21.CopyFrom(negY22)
	return nil
}

// isBase reports whether the recursion stops at dimension n: at the base
// size, or when the matrix can no longer be halved cleanly over the grid
// (n/2 must stay divisible by E).
func isBase(cb *grid.Cube, n, base int) bool {
	return n <= base || (n/2)%cb.E != 0 || n%2 != 0
}

// ApplyInvT computes X = A·L⁻ᵀ for lower-triangular L whose inverse Y is
// complete except for the off-diagonal blocks of its top k recursion
// levels (Result.Y under InverseDepth k), and writes it into dst, a
// compact matrix of a's shape the caller owns; dst may be a itself. At
// k ≤ 0 this is the direct multiply by Yᵀ; otherwise it is the §III-A
// blocked substitution
//
//	X₁ = A₁·L₁₁⁻ᵀ,  X₂ = (A₂ − X₁·L₂₁ᵀ)·L₂₂⁻ᵀ
//
// which costs one extra (smaller) MM3D and transpose per level — the
// flops-for-synchronization trade of the paper's InverseDepth knob. It
// serves both places the paper applies a CFR3D inverse: Algorithm 3
// lines 6–7 (L21 = A21·L11⁻ᵀ, a plain MM3D) and Algorithm 8 line 8
// (Q = A·R⁻¹ with R = Lᵀ), which sets tri to charge the leaf product by
// the triangular Yᵀ at the TRMM rate. a, l and y may be views.
func ApplyInvT(cb *grid.Cube, dst, a, l, y *lin.Matrix, k int, tri bool, workers int) error {
	// Asked for first on a bare cube: Yᵀ and its broadcast copy, and under
	// two blocks of a's size however deep the substitution goes.
	ws := cb.Workspace(int64(2*a.Rows*a.Cols + 2*l.Rows*l.Cols))
	defer ws.Release(ws.Mark())
	if k <= 0 || l.Rows < 2 || l.Rows%2 != 0 {
		w := ws.Matrix(y.Cols, y.Rows)
		if err := mm3d.TransposeInto(cb, w, y); err != nil {
			return err
		}
		return mm3d.MultiplyInto(cb, dst, a, w, tri, workers)
	}
	p := cb.Comm.Proc()
	half := l.Rows / 2
	l11 := ws.View(l, 0, 0, half, half)
	l21 := ws.View(l, half, 0, half, half)
	l22 := ws.View(l, half, half, half, half)
	y11 := ws.View(y, 0, 0, half, half)
	y22 := ws.View(y, half, half, half, half)
	a1 := ws.View(a, 0, 0, a.Rows, half)
	a2 := ws.View(a, 0, half, a.Rows, half)

	// t is taken first and x1 above it, so that x1 can be given back as
	// soon as it has been multiplied into t and copied out. dst's left
	// half is free by then even when dst is a: a1 was read for x1 only.
	t := ws.Matrix(a.Rows, half)
	left := ws.Mark()
	x1 := ws.Matrix(a.Rows, half)
	if err := ApplyInvT(cb, x1, a1, l11, y11, k-1, tri, workers); err != nil {
		return err
	}
	lt := ws.Matrix(half, half)
	if err := mm3d.TransposeInto(cb, lt, l21); err != nil {
		return err
	}
	if err := mm3d.MultiplyInto(cb, t, x1, lt, false, workers); err != nil {
		return err
	}
	ws.View(dst, 0, 0, a.Rows, half).CopyFrom(x1)
	ws.Release(left)

	t.SubFrom(a2)
	if err := p.Compute(lin.AxpyFlops(t.Rows, t.Cols)); err != nil {
		return err
	}
	// In place: X₂ replaces A₂ − X₁·L₂₁ᵀ.
	if err := ApplyInvT(cb, t, t, l22, y22, k-1, tri, workers); err != nil {
		return err
	}
	ws.View(dst, 0, half, a.Rows, half).CopyFrom(t)
	return nil
}

// baseCase Allgathers the panel over the slice, factors it redundantly,
// and keeps this rank's cyclic pieces (Algorithm 3 lines 1–3).
func (f factorization) baseCase(a, l, y *lin.Matrix, n int) error {
	cb, ws := f.cb, f.ws
	p := cb.Comm.Proc()
	e := cb.E
	defer ws.Release(ws.Mark())
	lFull, yFull := l, y
	if e > 1 {
		// Slice ordering is y-major (index y·E + x): the cyclic layout's
		// row-major member order with row = y, col = x.
		var err error
		if a, err = dist.Allgather(cb.Slice, a, ws.Matrix(n, n), ws.Matrix(n, n), n, n, e, e); err != nil {
			return err
		}
		lFull, yFull = ws.Matrix(n, n), ws.Matrix(n, n)
	}
	if err := lin.CholInvInto(a, lFull, yFull); err != nil {
		return err
	}
	if err := p.Compute(lin.CholFlops(n) + lin.TriInvFlops(n)); err != nil {
		return err
	}
	if e == 1 {
		return nil
	}
	if err := dist.Extract(lFull, e, e, cb.Y, cb.X, l); err != nil {
		return err
	}
	return dist.Extract(yFull, e, e, cb.Y, cb.X, y)
}
