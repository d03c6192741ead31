package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

import "math"

// Norms and error metrics used by the correctness tests and the accuracy
// experiments (orthogonality loss ‖QᵀQ−I‖ and residual ‖A−QR‖ as
// functions of κ(A), per the paper's §I stability discussion).

// Eps is float64 machine epsilon (2⁻⁵²), the ε of every stability bound
// in this repository: the §I criterion κ ≲ ε^{-1/2}, Fukaya et al.'s
// shift s = 11(mn+n(n+1))·ε·‖A‖², and the planner's orthogonality gate
// all share this one constant so they can never desynchronize.
const Eps = 2.220446049250313e-16

// FrobeniusNorm returns ‖M‖_F.
func FrobeniusNorm(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for _, v := range row {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MaxAbs returns max |m_ij|.
func MaxAbs(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for _, v := range row {
			if a := math.Abs(v); a > s {
				s = a
			}
		}
	}
	return s
}

// OrthogonalityError returns ‖QᵀQ − I‖_F, the forward-error metric the
// CholeskyQR2 literature uses (Θ(κ²ε) for one CholeskyQR pass, O(ε) after
// the second pass when κ(A) ≲ ε^{-1/2}).
func OrthogonalityError(q *Matrix) float64 {
	g := SyrkNew(q)
	for i := 0; i < g.Rows; i++ {
		g.Data[i*g.Stride+i] -= 1
	}
	return FrobeniusNorm(g)
}

// ResidualNorm returns ‖A − Q·R‖_F / ‖A‖_F, the backward-error metric
// (CholeskyQR is backward stable, so this stays O(ε) even when
// orthogonality degrades).
func ResidualNorm(a, q, r *Matrix) float64 {
	qr := MatMul(q, r)
	qr.Sub(a)
	na := FrobeniusNorm(a)
	if na == 0 {
		return FrobeniusNorm(qr)
	}
	return FrobeniusNorm(qr) / na
}

// EstimateCond estimates the 2-norm condition number κ₂(A) =
// σ_max/σ_min by power iteration on AᵀA and inverse iteration via the
// Cholesky factor, with a caller-chosen iteration count (the planner
// uses ~50 iterations: one n×n Gram SYRK plus O(iters·n²) matvec work,
// cheap next to any factorization of the same matrix; the generator's
// tests converge it with 200). It is not a general-purpose SVD. The
// Gram route squares κ, so it can only resolve κ ≲ ε^{-1/2}: near that
// its smallest eigenvalue is rounding noise, whether or not its
// Cholesky factor breaks down. When the factor fails, the estimate
// passes gramCondCeiling or the inverse iteration stops being finite,
// the estimator falls back to a Householder QR of A (backward stable,
// 2mn² flops, paid only on the ill-conditioned path) and
// inverse-iterates against R, resolving κ up to ~1/ε. +Inf therefore
// means genuinely rank-deficient, not merely "worse than 1e8". Power
// iteration converges from below, so the estimate is a (usually tight)
// lower bound on κ₂(A).
func EstimateCond(a *Matrix, iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	g := SyrkNew(a) // AᵀA, spectrum = squared singular values
	n := g.Rows
	if n == 0 {
		return 0
	}
	smax := math.Sqrt(powerIterate(g, iters))
	// σ_min via power iteration on (AᵀA)⁻¹ using the Cholesky factor.
	l, err := Cholesky(g)
	if err != nil {
		return qrEstimateCond(a, iters, smax)
	}
	smin := minSingular(l, iters)
	if smin == 0 || smax/smin > gramCondCeiling {
		return qrEstimateCond(a, iters, smax)
	}
	return smax / smin
}

// gramCondCeiling is the largest κ the Gram route reports: there ε·κ²
// is 2 %, so λ_min(AᵀA) still carries a few digits. ε^{-1/2} ≈ 6.7e7
// is where it carries none.
const gramCondCeiling = 1e7

// qrEstimateCond resolves condition numbers beyond the Gram route's
// ~ε^{-1/2} ceiling: a Householder QR of A shares A's singular values
// through R, and inverse iteration on (RᵀR)⁻¹ needs only triangular
// solves — no Cholesky of the squared spectrum. smax is the already
// converged largest singular value from the Gram power iteration
// (accurate regardless of κ). Returns +Inf only for a numerically
// rank-deficient R.
func qrEstimateCond(a *Matrix, iters int, smax float64) float64 {
	f, err := HouseholderQR(a)
	if err != nil {
		return math.Inf(1)
	}
	// Work with L = Rᵀ (same singular values) so the solves use the
	// implemented Lower-triangular Trsm variants, exactly like the
	// Cholesky-based path above.
	l := f.R.T()
	for i := 0; i < l.Rows; i++ {
		if l.At(i, i) == 0 {
			return math.Inf(1)
		}
	}
	smin := minSingular(l, iters)
	if smin == 0 {
		return math.Inf(1)
	}
	return smax / smin
}

// minSingular is the one inverse iteration of both routes: σ_min(L),
// the square root of L·Lᵀ's smallest eigenvalue (L·Lᵀ is AᵀA for the
// Cholesky factor, RᵀR for L = Rᵀ), by power iteration on
// (L·Lᵀ)⁻¹x = L⁻ᵀ(L⁻¹x). It returns 0 when an iterate vanishes or stops
// being finite: that route cannot resolve σ_min.
func minSingular(l *Matrix, iters int) float64 {
	x := onesVector(l.Rows)
	var lam float64
	for it := 0; it < iters; it++ {
		Trsm(Left, Lower, false, l, x)
		Trsm(Left, Lower, true, l, x)
		lam = FrobeniusNorm(x)
		if lam == 0 || math.IsInf(lam, 0) || math.IsNaN(lam) {
			return 0
		}
		x.Scale(1 / lam)
	}
	return math.Sqrt(1 / lam)
}

func powerIterate(g *Matrix, iters int) float64 {
	n := g.Rows
	x := onesVector(n)
	y := NewMatrix(n, 1)
	var lam float64
	for it := 0; it < iters; it++ {
		Gemm(false, false, 1, g, x, 0, y)
		lam = FrobeniusNorm(y)
		if lam == 0 {
			return 0
		}
		y.Scale(1 / lam)
		x, y = y, x
	}
	return lam
}

func onesVector(n int) *Matrix {
	x := NewMatrix(n, 1)
	for i := range x.Data {
		x.Data[i] = 1
	}
	x.Scale(1 / math.Sqrt(float64(n)))
	return x
}
