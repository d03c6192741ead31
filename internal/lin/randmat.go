package lin

import (
	"math"
	"math/rand"
)

// Random matrix generators. The paper's performance experiments use
// unspecified random matrices; RandomMatrix reproduces that workload
// deterministically from a seed. The accuracy experiments and the
// κ-sweep tests of every layer additionally need matrices with a
// prescribed 2-norm condition number, which RandomWithCond builds by
// scaled SVD composition, U·Σ·Vᵀ from Householder-random orthonormal
// factors and a geometric singular-value ladder, the construction the
// CholeskyQR2 literature uses for its κ-vs-orthogonality figures
// (Fukaya et al., the paper's reference [3]).

// RandomMatrix returns an m×n matrix with i.i.d. entries uniform on
// [-1, 1), from a deterministic seed.
func RandomMatrix(m, n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	out := NewMatrix(m, n)
	for i := range out.Data {
		out.Data[i] = 2*rng.Float64() - 1
	}
	return out
}

// RandomSPD returns an n×n symmetric positive definite matrix AᵀA + n·I
// built from a random A, safe for Cholesky at any size.
func RandomSPD(n int, seed int64) *Matrix {
	a := RandomMatrix(n, n, seed)
	spd := SyrkNew(a)
	for i := 0; i < n; i++ {
		spd.Data[i*spd.Stride+i] += float64(n)
	}
	return spd
}

// RandomOrthonormal returns an m×n matrix (m ≥ n) with orthonormal
// columns, obtained as the Q factor of a random Gaussian-ish matrix.
func RandomOrthonormal(m, n int, seed int64) *Matrix {
	a := RandomMatrix(m, n, seed)
	q, _, err := QR(a)
	if err != nil {
		panic(err) // random matrices are full rank with probability 1
	}
	return q
}

// RandomWithCond returns an m×n matrix (m ≥ n) whose 2-norm condition
// number is cond, with singular values geometrically spaced in
// [1/cond, 1]; κ₂ is exact by construction up to roundoff.
func RandomWithCond(m, n int, cond float64, seed int64) *Matrix {
	return withSpectrum(m, n, geometricSpectrum(n, cond), seed)
}

// geometricSpectrum returns n singular values geometrically spaced from
// 1 down to 1/cond, the decay profile whose condition number is cond.
func geometricSpectrum(n int, cond float64) []float64 {
	if cond < 1 {
		panic("lin: condition number must be >= 1")
	}
	sigma := make([]float64, n)
	for j := range sigma {
		sigma[j] = 1
		if n > 1 {
			sigma[j] = math.Pow(cond, -float64(j)/float64(n-1))
		}
	}
	return sigma
}

// withSpectrum returns U·diag(sigma)·Vᵀ for seeded random orthonormal
// U (m×n) and V (n×n): an m×n matrix with exactly the singular values
// sigma, one per column.
func withSpectrum(m, n int, sigma []float64, seed int64) *Matrix {
	if len(sigma) != n {
		panic("lin: need one singular value per column")
	}
	u := RandomOrthonormal(m, n, seed)
	v := RandomOrthonormal(n, n, seed+1)
	for j, s := range sigma {
		for i := 0; i < m; i++ {
			u.Data[i*u.Stride+j] *= s
		}
	}
	out := NewMatrix(m, n)
	Gemm(false, true, 1, u, v, 0, out)
	return out
}
