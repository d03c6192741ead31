package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

import "math"

// LAPACK-analog factorizations: the combined Cholesky and triangular
// inverse (CholInv) every CholeskyQR pass and the paper's Algorithm 3 base
// case run, and Householder QR (used both as the accuracy reference and by
// the PGEQRF baseline).

// Cholesky overwrites nothing; it returns the lower-triangular L with
// A = L·Lᵀ for symmetric positive definite A (the paper charges (2/3)n³
// flops). It is CholInv with Y dropped: the recursion forms L⁻¹ on the
// way. The strictly upper part of the result is zero, and that of A is
// never read. Fails with ErrNotPositiveDefinite when a pivot is not
// strictly positive and finite.
func Cholesky(a *Matrix) (*Matrix, error) {
	l, _, err := CholInv(a)
	return l, err
}

// CholInv is the paper's sequential CholInv building block: it factors the
// SPD matrix A = L·Lᵀ and also returns Y = L⁻¹. The paper charges
// (2/3)n³ flops for the factorization plus (1/3)n³ for the inverse
// (asymptotically absorbed). This is the redundant base-case computation
// of Algorithm 3.
func CholInv(a *Matrix) (l, y *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, ErrShape
	}
	l, y = NewMatrix(a.Rows, a.Cols), NewMatrix(a.Rows, a.Cols)
	if err := CholInvInto(a, l, y); err != nil {
		return nil, nil, err
	}
	return l, y, nil
}

// cholBase is the order at and below which CholInv stops recursing and
// runs the scalar base case.
const cholBase = 16

// cholSplit rounds CholInv's split point up to a multiple of itself. It
// is the kernel's tile width when the recursion was written, pinned here
// so that tuning the kernel's tile never moves L, Y or R.
const cholSplit = 8

// CholInvInto is CholInv writing L and Y into caller-owned n×n matrices
// (views are fine), whatever they held; only the lower triangle of A is
// read. None of the three may overlap. It is CFR3D's sequential recursion
// (the paper's Algorithm 3 on one rank) on the shared micro-kernel:
// with A split at n₁ = ⌈n/2⌉ rounded up to a multiple of cholSplit,
//
//	(L₁₁, Y₁₁) = CholInv(A₁₁)
//	L₂₁ = A₂₁·Y₁₁ᵀ                        one TRMM
//	(L₂₂, Y₂₂) = CholInv(A₂₂ − L₂₁·L₂₁ᵀ)   one GEMM
//	Y₂₁ = −Y₂₂·(L₂₁·Y₁₁)                  two TRMMs
//
// down to cholBase. The Schur complement lives in L's strictly upper
// n₁×n₂ block (n₂ ≤ n₁), which is zeroed once the recursion returns, so
// CholInvInto allocates nothing.
func CholInvInto(a, l, y *Matrix) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n || y.Rows != n || y.Cols != n {
		return ErrShape
	}
	if n <= cholBase {
		return cholInvBase(a, l, y)
	}
	n1 := ((n+1)/2 + cholSplit - 1) / cholSplit * cholSplit
	n2 := n - n1
	a11, a21, a22 := a.Slice(0, 0, n1, n1), a.Slice(n1, 0, n2, n1), a.Slice(n1, n1, n2, n2)
	l11, l21, l22 := l.Slice(0, 0, n1, n1), l.Slice(n1, 0, n2, n1), l.Slice(n1, n1, n2, n2)
	y11, y21, y22 := y.Slice(0, 0, n1, n1), y.Slice(n1, 0, n2, n1), y.Slice(n1, n1, n2, n2)
	l12, y12 := l.Slice(0, n1, n1, n2), y.Slice(0, n1, n1, n2)
	s := l.Slice(0, n1, n2, n2)
	if err := CholInvInto(&a11, &l11, &y11); err != nil {
		return err
	}
	l21.CopyFrom(&a21)
	Trmm(Right, Lower, true, &y11, &l21)
	// Only S's lower triangle is read below, so A₂₂'s upper is never
	// copied; the GEMM's upper half is discarded.
	for i := 0; i < n2; i++ {
		copy(s.Data[i*s.Stride:i*s.Stride+i+1], a22.Data[i*a22.Stride:i*a22.Stride+i+1])
	}
	Gemm(false, true, -1, &l21, &l21, 1, &s)
	if err := CholInvInto(&s, &l22, &y22); err != nil {
		return err
	}
	l12.Zero()
	y21.CopyFrom(&l21)
	Trmm(Right, Lower, false, &y11, &y21)
	Trmm(Left, Lower, false, &y22, &y21)
	y21.Scale(-1)
	y12.Zero()
	return nil
}

// cholInvBase is CholInvInto for n ≤ cholBase, scalar and in axpy form
// so that every inner loop runs along a contiguous row. U = Lᵀ is built
// in Y's storage by right-looking Cholesky — row k of U is divided by
// its pivot, then subtracted from the trailing rows — and transposed
// into L; then row i of Y is (eᵢ − Σₖ L(i,k)·Y(k,:)) / L(i,i) over the
// rows k < i already formed. Both loops divide by the pivot rather than
// multiply by its reciprocal: that keeps an exactly singular Gram matrix
// from factoring.
func cholInvBase(a, l, y *Matrix) error {
	n := a.Rows
	for k := 0; k < n; k++ {
		uk := y.Data[k*y.Stride : k*y.Stride+n]
		for j := k; j < n; j++ {
			uk[j] = a.Data[j*a.Stride+k]
		}
	}
	for k := 0; k < n; k++ {
		uk := y.Data[k*y.Stride : k*y.Stride+n]
		d := uk[k]
		if !(d > 0) || d > math.MaxFloat64 { // ≤ 0, NaN, or a Gram matrix that overflowed to +Inf
			return ErrNotPositiveDefinite
		}
		r := math.Sqrt(d)
		uk[k] = r
		for j := k + 1; j < n; j++ {
			uk[j] /= r
		}
		for i := k + 1; i < n; i++ {
			ui, u := y.Data[i*y.Stride+i:i*y.Stride+n], uk[i]
			for j, v := range uk[i:] {
				ui[j] -= u * v
			}
		}
	}
	for i := 0; i < n; i++ {
		li := l.Data[i*l.Stride : i*l.Stride+n]
		for j := 0; j <= i; j++ {
			li[j] = y.Data[j*y.Stride+i]
		}
		clear(li[i+1:])
	}
	for i := 0; i < n; i++ {
		yi, li := y.Data[i*y.Stride:i*y.Stride+n], l.Data[i*l.Stride:i*l.Stride+i+1]
		clear(yi)
		yi[i] = 1
		for k, lk := range li[:i] {
			for j, v := range y.Data[k*y.Stride : k*y.Stride+k+1] {
				yi[j] -= lk * v
			}
		}
		for j := range yi[:i+1] {
			yi[j] /= li[i]
		}
	}
	return nil
}

// qrPanel is Householder QR's panel width: the trailing columns are
// updated once per qrPanel-wide panel through its compact-WY form. Inside
// a panel the strip is split in halves down to qrLeaf columns, so that
// only the leaves run level-2 row sweeps and everything else is a
// micro-kernel product.
const (
	qrPanel = 32
	qrLeaf  = 8
)

// QRFactors holds the compact output of Householder QR: the upper
// triangle of QR.R (n×n) and the Householder vectors/taus needed to apply
// or form Q.
type QRFactors struct {
	// V is m×n; column j holds the j-th Householder vector with an
	// implicit unit in position j (entries above j are zero).
	V *Matrix
	// Tau holds the n Householder coefficients.
	Tau []float64
	// R is the n×n upper-triangular factor.
	R *Matrix
	// t stacks the compact-WY factor of every panel: rows [p0, p0+b) of
	// this n×qrPanel matrix hold the b×b upper-triangular T with
	// H_p0···H_{p0+b−1} = I − V_p·T·V_pᵀ, V_p = V[p0:m, p0:p0+b].
	t *Matrix
}

// HouseholderQR computes the reduced QR factorization of an m×n matrix
// (m ≥ n) by Householder reflections (2mn² − (2/3)n³ flops — the flop
// count the paper's Gigaflops/s figures are normalized by). The input is
// not modified. It is blocked (the sequential structure of Demmel et al.,
// arXiv:0809.2407): each qrPanel-wide panel is factored on its own, then
// applied to the trailing columns as two GEMMs and a TRMM.
func HouseholderQR(a *Matrix) (*QRFactors, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, ErrShape
	}
	w := a.Clone()
	f := &QRFactors{V: NewMatrix(m, n), Tau: make([]float64, n), t: NewMatrix(n, qrPanel)}
	work := make([]float64, qrPanel*max(n, qrPanel))
	leaf := make([]float64, m*qrLeaf)
	for p0 := 0; p0 < n; p0 += qrPanel {
		b := min(qrPanel, n-p0)
		f.factorPanel(w, p0, p0, b, leaf, work)
		if p0+b < n {
			v, t := f.panel(p0)
			applyBlock(v, t, true, w.View(p0, p0+b, m-p0, n-p0-b), work)
		}
	}
	f.R = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(f.R.Data[i*n+i:i*n+n], w.Data[i*w.Stride+i:i*w.Stride+n])
	}
	return f, nil
}

// factorPanel reduces columns [c0, c0+b) of w, from row c0 down, and
// fills their columns of the T factor of the panel at p0. Above qrLeaf
// columns it factors the left half, applies that half's block to the
// right half and factors the right half.
func (f *QRFactors) factorPanel(w *Matrix, p0, c0, b int, leaf, work []float64) {
	if b > qrLeaf {
		m, b1 := w.Rows, b/2
		f.factorPanel(w, p0, c0, b1, leaf, work)
		v, t := f.V.View(c0, c0, m-c0, b1), f.t.View(c0, c0-p0, b1, b1)
		applyBlock(v, t, true, w.View(c0, c0+b1, m-c0, b-b1), work)
		f.factorPanel(w, p0, c0+b1, b-b1, leaf, work)
		return
	}
	f.factorLeaf(w, c0, b, leaf, work)
	f.extendT(p0, c0, b)
}

// factorLeaf reduces columns [c0, c0+b) of w, from row c0 down, with b
// reflectors, storing them in V and Tau and R's rows in w. The leaf is
// copied into buf, one row per qrLeaf-wide line, and reduced there: each
// reflector (scaled like LAPACK's dlarfg) reaches the rest of the leaf in
// two sweeps down its rows — a dot product into d, then the rank-1
// update — so the strip is read row by row, never column by column.
func (f *QRFactors) factorLeaf(w *Matrix, c0, b int, buf, d []float64) {
	const ls = qrLeaf
	rows, ws, vs := w.Rows-c0, w.Stride, f.V.Stride
	a := w.Data[c0*ws+c0:]
	s := buf[:rows*ls]
	for i := 0; i < rows; i++ {
		copy(s[i*ls:i*ls+b], a[i*ws:i*ws+b])
	}
	for k := 0; k < b; k++ {
		x0 := s[k*ls+k]
		normx := norm2(s[k*ls+k:], rows-k, ls)
		if normx == 0 {
			f.Tau[c0+k] = 0
			continue
		}
		beta := -math.Copysign(normx, x0)
		scale := 1 / (x0 - beta)
		tau := (beta - x0) / beta
		f.Tau[c0+k] = tau
		s[k*ls+k] = beta
		dk := (*[ls]float64)(d)
		copy(dk[k+1:b], s[k*ls+k+1:k*ls+b])
		for i := k + 1; i < rows; i++ {
			row := (*[ls]float64)(s[i*ls:])
			vi := row[k] * scale
			row[k] = vi
			for j := k + 1; j < b; j++ {
				dk[j&(ls-1)] += vi * row[j&(ls-1)]
			}
		}
		for j := k + 1; j < b; j++ {
			dk[j] *= tau
			s[k*ls+j] -= dk[j]
		}
		for i := k + 1; i < rows; i++ {
			row := (*[ls]float64)(s[i*ls:])
			vi := row[k]
			for j := k + 1; j < b; j++ {
				row[j&(ls-1)] -= dk[j&(ls-1)] * vi
			}
		}
	}
	// Row i of the leaf is R's right of its diagonal and V's left of it.
	v := f.V.Data[c0*vs+c0:]
	for i := 0; i < rows; i++ {
		r := min(i, b)
		copy(v[i*vs:i*vs+r], s[i*ls:i*ls+r])
		copy(a[i*ws+r:i*ws+b], s[i*ls+r:i*ls+b])
		if i < b {
			v[i*vs+i] = 1
		}
	}
}

// extendT fills columns [c0, c0+b) of the T factor of the panel at p0
// (LAPACK dlarft, forward columnwise): with G = V_pᵀ·V[:, c0:c0+b] from
// one GEMM (the new reflectors vanish above row c0), column j of T is
// T[0:j, j] = −τ_j·T[0:j, 0:j]·G[0:j, j] and T[j, j] = τ_j. It is
// computed in place over G: row i reads G's rows l ≥ i, which an
// ascending i has not yet overwritten.
func (f *QRFactors) extendT(p0, c0, b int) {
	m, j0, je := f.V.Rows, c0-p0, c0-p0+b
	Gemm(true, false, 1, f.V.View(c0, p0, m-c0, je), f.V.View(c0, c0, m-c0, b), 0, f.t.View(p0, j0, je, b))
	t, ts := f.t.Data[p0*f.t.Stride:], f.t.Stride
	for j := j0; j < je; j++ {
		tau := f.Tau[p0+j]
		for i := 0; i < j; i++ {
			var s float64
			for l := i; l < j; l++ {
				s += t[i*ts+l] * t[l*ts+j]
			}
			t[i*ts+j] = -tau * s
		}
		t[j*ts+j] = tau
		for i := j + 1; i < je; i++ {
			t[i*ts+j] = 0
		}
	}
}

// norm2 returns the 2-norm of the n entries x[0], x[inc], x[2·inc], …
// It is the plain root of the sum of squares unless that sum overflows or
// falls where squares underflow; then, like LAPACK's dnrm2, it scales by
// the largest magnitude first, so a finite column always has a finite
// norm.
func norm2(x []float64, n, inc int) float64 {
	var ss float64
	for i := 0; i < n; i++ {
		v := x[i*inc]
		ss += v * v
	}
	if ss >= 0x1p-960 && ss <= math.MaxFloat64 || math.IsNaN(ss) {
		return math.Sqrt(ss)
	}
	var big float64
	for i := 0; i < n; i++ {
		big = math.Max(big, math.Abs(x[i*inc]))
	}
	if big == 0 || math.IsInf(big, 1) {
		return big
	}
	ss = 0
	for i := 0; i < n; i++ {
		v := x[i*inc] / big
		ss += v * v
	}
	return big * math.Sqrt(ss)
}

// panel returns the reflectors V_p (rows p0 and below) and the T factor
// of the panel that starts at column p0.
func (f *QRFactors) panel(p0 int) (v, t *Matrix) {
	b := min(qrPanel, f.V.Cols-p0)
	return f.V.View(p0, p0, f.V.Rows-p0, b), f.t.View(p0, 0, b, b)
}

// applyBlock overwrites C with (I − V·op(T)·Vᵀ)·C, op(T) = Tᵀ when
// trans: one panel's reflectors H_p0···H_{p0+b−1} (trans: their product
// in reverse, the transpose) applied as W = VᵀC, W = op(T)·W,
// C −= V·W. work holds at least T.Rows × C.Cols entries.
func applyBlock(v, t *Matrix, trans bool, c *Matrix, work []float64) {
	w := &Matrix{Rows: t.Rows, Cols: c.Cols, Stride: c.Cols, Data: work}
	Gemm(true, false, 1, v, c, 0, w)
	Trmm(Left, Upper, trans, t, w)
	Gemm(false, false, -1, v, w, 1, c)
}

// FormQ explicitly forms the m×n orthonormal factor from the compact
// representation: ApplyQ on [I; 0]. The panel at p0 is applied to
// columns p0 and right only — the columns left of it are still the
// identity's, zero in every row the panel touches.
func (f *QRFactors) FormQ() *Matrix {
	m, n := f.V.Rows, f.V.Cols
	q := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		q.Data[j*q.Stride+j] = 1
	}
	work := make([]float64, qrPanel*n)
	for i := (n+qrPanel-1)/qrPanel - 1; i >= 0; i-- {
		p0 := i * qrPanel
		v, t := f.panel(p0)
		applyBlock(v, t, false, q.View(p0, p0, m-p0, n-p0), work)
	}
	return q
}

// QR computes the reduced factorization A = Q·R with Q m×n orthonormal
// and R n×n upper triangular, normalizing signs so that R has a
// non-negative diagonal (making the factorization unique and comparable
// across algorithms).
func QR(a *Matrix) (q, r *Matrix, err error) {
	f, err := HouseholderQR(a)
	if err != nil {
		return nil, nil, err
	}
	q = f.FormQ()
	r = f.R
	NormalizeSigns(q, r)
	return q, r, nil
}

// NormalizeSigns flips, in place, each row i of R with a negative
// diagonal entry together with column i of Q. Q·R is unchanged, and R
// gains the non-negative diagonal that makes a reduced QR factorization
// unique — the convention every factorization in this repository
// returns, so results from Householder, TSQR, PGEQRF, and the
// CholeskyQR family (whose R is non-negative by construction) are
// directly comparable.
func NormalizeSigns(q, r *Matrix) {
	for i := 0; i < r.Rows; i++ {
		if r.Data[i*r.Stride+i] < 0 {
			for j := i; j < r.Cols; j++ {
				r.Data[i*r.Stride+j] = -r.Data[i*r.Stride+j]
			}
			for k := 0; k < q.Rows; k++ {
				q.Data[k*q.Stride+i] = -q.Data[k*q.Stride+i]
			}
		}
	}
}
