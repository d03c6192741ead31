package lin

//lint:allow floatcompare a zero norm is the structural tau = 0 case, as in HouseholderQR

import "math"

// Naive triple-loop reference kernels. These are the ground truth the
// blocked and parallel kernels are property-tested against. Test-only:
// they must never ship in the library proper.

// naiveGemm computes C = beta*C + alpha*op(A)*op(B) with the textbook
// i-j-l loop nest and no blocking.
func naiveGemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	m, k := a.Rows, a.Cols
	if transA {
		m, k = k, m
	}
	n := b.Cols
	if transB {
		n = b.Rows
	}
	at := func(i, l int) float64 {
		if transA {
			return a.Data[l*a.Stride+i]
		}
		return a.Data[i*a.Stride+l]
	}
	bt := func(l, j int) float64 {
		if transB {
			return b.Data[j*b.Stride+l]
		}
		return b.Data[l*b.Stride+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for l := 0; l < k; l++ {
				sum += at(i, l) * bt(l, j)
			}
			c.Data[i*c.Stride+j] = beta*c.Data[i*c.Stride+j] + alpha*sum
		}
	}
}

// naiveSyrk computes C = beta*C + alpha*AᵀA elementwise.
func naiveSyrk(alpha float64, a *Matrix, beta float64, c *Matrix) {
	n := a.Cols
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for l := 0; l < a.Rows; l++ {
				sum += a.Data[l*a.Stride+i] * a.Data[l*a.Stride+j]
			}
			c.Data[i*c.Stride+j] = beta*c.Data[i*c.Stride+j] + alpha*sum
		}
	}
}

// maxRelDiff returns max |got−want| / max(1, max|want|): an absolute
// comparison for O(1)-magnitude data that degrades gracefully when
// accumulated sums grow past 1.
func maxRelDiff(got, want *Matrix) float64 {
	var maxAbs, maxDiff float64
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			w := want.Data[i*want.Stride+j]
			g := got.Data[i*got.Stride+j]
			if a := abs(w); a > maxAbs {
				maxAbs = a
			}
			if d := abs(g - w); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxAbs < 1 {
		maxAbs = 1
	}
	return maxDiff / maxAbs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// wellCondTriangular returns a unit-diagonal-dominant n×n triangular
// matrix (lower when tri == Lower) whose solves stay well conditioned.
func wellCondTriangular(n int, tri Triangle, seed int64) *Matrix {
	t := RandomMatrix(n, n, seed)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				t.Data[i*t.Stride+j] = 2 + abs(t.Data[i*t.Stride+j])
			case tri == Lower && j > i, tri == Upper && j < i:
				t.Data[i*t.Stride+j] = 0
			default:
				t.Data[i*t.Stride+j] *= 0.5 / float64(n)
			}
		}
	}
	return t
}

// naiveHouseholderQR is unblocked Householder QR: one reflector at a
// time, each applied to the trailing columns by walking down them. It
// shares norm2 and the beta/tau sign rule with HouseholderQR, so the two
// agree to rounding. The returned factors carry no compact-WY T: form
// their Q with naiveFormQ.
func naiveHouseholderQR(a *Matrix) *QRFactors {
	m, n := a.Rows, a.Cols
	w := a.Clone()
	v := NewMatrix(m, n)
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		normx := norm2(w.Data[k*w.Stride+k:], m-k, w.Stride)
		x0 := w.Data[k*w.Stride+k]
		v.Data[k*v.Stride+k] = 1
		if normx == 0 {
			continue
		}
		beta := -math.Copysign(normx, x0)
		scale := x0 - beta
		for i := k + 1; i < m; i++ {
			v.Data[i*v.Stride+k] = w.Data[i*w.Stride+k] / scale
		}
		tau[k] = (beta - x0) / beta
		w.Data[k*w.Stride+k] = beta
		for j := k + 1; j < n; j++ {
			dot := w.Data[k*w.Stride+j]
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
	return &QRFactors{V: v, Tau: tau, R: r}
}

// naiveFormQ forms Q = H_0···H_{n−1}·[I; 0] one reflector at a time.
func naiveFormQ(f *QRFactors) *Matrix {
	m, n := f.V.Rows, f.V.Cols
	q := NewMatrix(m, n)
	for j := 0; j < n; j++ {
		q.Data[j*q.Stride+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
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

// naiveCholesky is the left-looking dot-product Cholesky: L(i,j) is
// A(i,j) minus the dot product of rows i and j of L, over L(j,j). It reads
// only the lower triangle of A and fails on a pivot that is not strictly
// positive and finite, like CholInv.
func naiveCholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.Data[i*a.Stride+j]
			li := l.Data[i*l.Stride : i*l.Stride+j]
			lj := l.Data[j*l.Stride : j*l.Stride+j]
			for k := range li {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if !(sum > 0) || sum > math.MaxFloat64 {
					return nil, ErrNotPositiveDefinite
				}
				l.Data[i*l.Stride+j] = math.Sqrt(sum)
			} else {
				l.Data[i*l.Stride+j] = sum / l.Data[j*l.Stride+j]
			}
		}
	}
	return l, nil
}

// naiveTriInverse inverts a nonsingular lower-triangular L column by
// column: forward substitution on L·X = I.
func naiveTriInverse(l *Matrix) *Matrix {
	n := l.Rows
	inv := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		inv.Data[j*inv.Stride+j] = 1 / l.Data[j*l.Stride+j]
		for i := j + 1; i < n; i++ {
			var sum float64
			for k := j; k < i; k++ {
				sum += l.Data[i*l.Stride+k] * inv.Data[k*inv.Stride+j]
			}
			inv.Data[i*inv.Stride+j] = -sum / l.Data[i*l.Stride+i]
		}
	}
	return inv
}
