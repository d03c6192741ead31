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
}

// HouseholderQR computes the reduced QR factorization of an m×n matrix
// (m ≥ n) by Householder reflections (2mn² − (2/3)n³ flops — the flop
// count the paper's Gigaflops/s figures are normalized by). The input is
// not modified.
func HouseholderQR(a *Matrix) (*QRFactors, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, ErrShape
	}
	w := a.Clone()
	v := NewMatrix(m, n)
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Build the reflector for column k from w[k:m, k].
		var normx float64
		for i := k; i < m; i++ {
			x := w.Data[i*w.Stride+k]
			normx += x * x
		}
		normx = math.Sqrt(normx)
		x0 := w.Data[k*w.Stride+k]
		if normx == 0 {
			tau[k] = 0
			v.Data[k*v.Stride+k] = 1
			continue
		}
		beta := -math.Copysign(normx, x0)
		v.Data[k*v.Stride+k] = 1
		scale := x0 - beta
		for i := k + 1; i < m; i++ {
			v.Data[i*v.Stride+k] = w.Data[i*w.Stride+k] / scale
		}
		tau[k] = (beta - x0) / beta
		w.Data[k*w.Stride+k] = beta
		for i := k + 1; i < m; i++ {
			w.Data[i*w.Stride+k] = 0
		}
		// Apply (I − tau v vᵀ) to the trailing columns.
		for j := k + 1; j < n; j++ {
			var dot float64
			dot = w.Data[k*w.Stride+j]
			for i := k + 1; i < m; i++ {
				dot += v.Data[i*v.Stride+k] * w.Data[i*w.Stride+j]
			}
			t := tau[k] * dot
			w.Data[k*w.Stride+j] -= t
			for i := k + 1; i < m; i++ {
				w.Data[i*w.Stride+j] -= t * v.Data[i*v.Stride+k]
			}
		}
	}
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Data[i*r.Stride+j] = w.Data[i*w.Stride+j]
		}
	}
	return &QRFactors{V: v, Tau: tau, R: r}, nil
}

// FormQ explicitly forms the m×n orthonormal factor from the compact
// representation.
func (f *QRFactors) FormQ() *Matrix {
	m, n := f.V.Rows, f.V.Cols
	q := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		q.Data[j*q.Stride+j] = 1
	}
	// Q = H_0 H_1 ... H_{n-1} · [I; 0]; apply reflectors in reverse.
	for k := n - 1; k >= 0; k-- {
		if f.Tau[k] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += f.V.Data[i*f.V.Stride+k] * q.Data[i*q.Stride+j]
			}
			t := f.Tau[k] * dot
			for i := k; i < m; i++ {
				q.Data[i*q.Stride+j] -= t * f.V.Data[i*f.V.Stride+k]
			}
		}
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
