package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

import "math"

// LAPACK-analog factorizations: Cholesky, triangular inverse, the combined
// CholInv the paper's Algorithm 2 needs at its base case, and Householder
// QR (used both as the accuracy reference and by the PGEQRF baseline).

// Cholesky overwrites nothing; it returns the lower-triangular L with
// A = L·Lᵀ for symmetric positive definite A ((1/3)n³ flops; the paper
// charges (2/3)n³ counting multiplies and adds). The strictly upper part
// of the result is zero. Fails with ErrNotPositiveDefinite when a pivot
// is not strictly positive and finite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	l := NewMatrix(a.Rows, a.Cols)
	if err := choleskyInto(a, l); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto is Cholesky writing the factor into l, whatever l held:
// the strictly upper part is zeroed row by row.
func choleskyInto(a, l *Matrix) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		return ErrShape
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.Data[i*a.Stride+j]
			li := l.Data[i*l.Stride : i*l.Stride+j]
			lj := l.Data[j*l.Stride : j*l.Stride+j]
			for k := range li {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if !(sum > 0) || sum > math.MaxFloat64 { // ≤ 0, NaN, or a Gram matrix that overflowed to +Inf
					return ErrNotPositiveDefinite
				}
				l.Data[i*l.Stride+j] = math.Sqrt(sum)
			} else {
				l.Data[i*l.Stride+j] = sum / l.Data[j*l.Stride+j]
			}
		}
		clear(l.Data[i*l.Stride+i+1 : i*l.Stride+n])
	}
	return nil
}

// TriInverse returns the inverse of a triangular matrix T ((1/3)n³ flops).
// tri states which half of T carries the data; the other half is ignored.
func TriInverse(t *Matrix, tri Triangle) (*Matrix, error) {
	if t.Rows != t.Cols {
		return nil, ErrShape
	}
	inv := NewMatrix(t.Rows, t.Cols)
	if err := triInverseInto(t, tri, inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// triInverseInto is TriInverse writing the inverse into inv, whatever
// inv held: the half opposite tri is zeroed.
func triInverseInto(t *Matrix, tri Triangle, inv *Matrix) error {
	n := t.Rows
	if t.Cols != n || inv.Rows != n || inv.Cols != n {
		return ErrShape
	}
	for i := 0; i < n; i++ {
		if t.Data[i*t.Stride+i] == 0 {
			return ErrSingular
		}
	}
	if tri == Lower {
		// Column-by-column forward substitution: L X = I.
		for j := 0; j < n; j++ {
			clear(inv.Data[j*inv.Stride+j+1 : j*inv.Stride+n])
			inv.Data[j*inv.Stride+j] = 1 / t.Data[j*t.Stride+j]
			for i := j + 1; i < n; i++ {
				var sum float64
				for k := j; k < i; k++ {
					sum += t.Data[i*t.Stride+k] * inv.Data[k*inv.Stride+j]
				}
				inv.Data[i*inv.Stride+j] = -sum / t.Data[i*t.Stride+i]
			}
		}
	} else {
		// U X = I via backward substitution.
		for j := n - 1; j >= 0; j-- {
			clear(inv.Data[j*inv.Stride : j*inv.Stride+j])
			inv.Data[j*inv.Stride+j] = 1 / t.Data[j*t.Stride+j]
			for i := j - 1; i >= 0; i-- {
				var sum float64
				for k := i + 1; k <= j; k++ {
					sum += t.Data[i*t.Stride+k] * inv.Data[k*inv.Stride+j]
				}
				inv.Data[i*inv.Stride+j] = -sum / t.Data[i*t.Stride+i]
			}
		}
	}
	return nil
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

// CholInvInto is CholInv writing L and Y into caller-owned n×n matrices
// (views are fine), whatever they held. None of the three may overlap.
func CholInvInto(a, l, y *Matrix) error {
	if err := choleskyInto(a, l); err != nil {
		return err
	}
	return triInverseInto(l, Lower, y)
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
