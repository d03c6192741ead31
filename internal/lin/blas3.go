package lin

//lint:allow floatcompare exact zero tests are structural fast paths and bit-identity is the kernel contract, not data tolerance checks

// Level-3 BLAS: GEMM, SYRK, TRMM and TRSM. The first three are thin
// drivers over the one tiled micro-kernel in kernel.go: each describes
// its operands by strides, names the structural zeros (SYRK's lower
// triangle, TRMM's triangular factor) and hands the product to the
// shared tile loops, serial (workers = 1) or on the worker pool. The
// serial and parallel entry points are therefore the same computation
// per element and agree bitwise. TRSM has no hot caller and
// stays a scalar substitution. Each kernel documents its flop count so
// the distributed algorithms can charge the α-β-γ model exactly —
// parallelism and vector width change wall-clock, not the model.

// parallelFlopCutoff is the approximate flop count below which goroutine
// hand-off costs more than it saves and the kernels stay serial: about
// 0.3 ms of work at the assembly kernel's rate. Timed against serial, two
// workers gain nothing below half of that and 1.3–1.5× from here up.
const parallelFlopCutoff = 1 << 23

// Triangle selects the triangular half of a matrix an operation refers to.
type Triangle int

// Triangular halves.
const (
	Lower Triangle = iota
	Upper
)

// Side selects whether a triangular operand appears on the left or right.
type Side int

// Operand sides.
const (
	Left Side = iota
	Right
)

// Gemm computes C = beta*C + alpha*op(A)*op(B), with op controlled by
// transA and transB. It performs 2*m*n*k flops for the inner product part
// (m, n the shape of C, k the contraction length). beta == 0 overwrites C
// without reading it; alpha == 0 does not read A or B.
func Gemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	GemmParallel(1, transA, transB, alpha, a, b, beta, c)
}

// GemmParallel is Gemm using up to workers goroutines (0 = GOMAXPROCS):
// row chunks of C are claimed dynamically from the shared pool. The
// result is bitwise identical to Gemm for any worker count.
func GemmParallel(workers int, transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	checkGemmShapes(transA, transB, a, b, c)
	p := gemmProduct(transA, transB, alpha, a, b, beta, c)
	if alpha == 0 || p.k == 0 {
		c.scaleBy(beta)
		return
	}
	p.run(workers, c.Rows, c.Cols, GemmFlops(c.Rows, c.Cols, p.k))
}

// gemmProduct states Gemm's operands in the kernel's strides: a
// transposed A swaps its row and contraction strides, a transposed B is
// walked down its columns (and so gets packed).
func gemmProduct(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) product {
	p := product{
		k: a.Cols, alpha: alpha, beta: beta,
		a: a.Data, ars: a.Stride, aks: 1,
		b: b.Data, bks: b.Stride, bjs: 1,
		c: c.Data, cis: c.Stride, cjs: 1,
	}
	if transA {
		p.k, p.ars, p.aks = a.Rows, 1, a.Stride
	}
	if transB {
		p.bks, p.bjs = 1, b.Stride
	}
	return p
}

// MatMul returns A*B as a new matrix (the paper's MM building block;
// 2*m*n*k flops).
func MatMul(a, b *Matrix) *Matrix { return MatMulParallel(1, a, b) }

// MatMulParallel returns A·B computed with GemmParallel.
func MatMulParallel(workers int, a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	GemmParallel(workers, false, false, 1, a, b, 0, c)
	return c
}

// checkGemmShapes validates conforming shapes and, because the assembly
// kernel has no bounds checks, that each operand's storage covers its
// shape.
func checkGemmShapes(transA, transB bool, a, b, c *Matrix) {
	ar, ac := a.Rows, a.Cols
	if transA {
		ar, ac = ac, ar
	}
	br, bc := b.Rows, b.Cols
	if transB {
		br, bc = bc, br
	}
	if ac != br || c.Rows != ar || c.Cols != bc {
		panic(ErrShape)
	}
	a.checkExtent()
	b.checkExtent()
	c.checkExtent()
}

// Syrk computes C = beta*C + alpha*AᵀA into the full symmetric matrix C
// (both halves are written, since the distributed algorithms communicate
// full matrices). A is m×n, C is n×n; the paper charges m*n² flops.
func Syrk(alpha float64, a *Matrix, beta float64, c *Matrix) {
	SyrkParallel(1, alpha, a, beta, c)
}

// SyrkParallel is Syrk using up to workers goroutines, bitwise identical
// to Syrk: the kernel runs over the tiles that touch the upper triangle,
// in row chunks small enough for the triangular load to balance, and the
// strict upper triangle is then mirrored.
func SyrkParallel(workers int, alpha float64, a *Matrix, beta float64, c *Matrix) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic(ErrShape)
	}
	a.checkExtent()
	c.checkExtent()
	if alpha == 0 || a.Rows == 0 {
		c.scaleBy(beta)
	} else {
		p := product{
			k: a.Rows, alpha: alpha, beta: beta, mode: symC,
			a: a.Data, ars: 1, aks: a.Stride,
			b: a.Data, bks: a.Stride, bjs: 1,
			c: c.Data, cis: c.Stride, cjs: 1,
		}
		p.run(workers, n, n, SyrkFlops(a.Rows, n))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Data[j*c.Stride+i] = c.Data[i*c.Stride+j]
		}
	}
}

// SyrkNew returns AᵀA.
func SyrkNew(a *Matrix) *Matrix { return SyrkNewParallel(1, a) }

// SyrkNewParallel returns AᵀA computed with SyrkParallel.
func SyrkNewParallel(workers int, a *Matrix) *Matrix {
	c := NewMatrix(a.Cols, a.Cols)
	SyrkParallel(workers, 1, a, 0, c)
	return c
}

// Trmm computes B = T*B (side == Left) or B = B*T (side == Right) in
// place for triangular T; only the half of T named by tri is read.
// transT multiplies by Tᵀ instead. n²m flops.
func Trmm(side Side, tri Triangle, transT bool, t, b *Matrix) {
	TrmmParallel(1, side, tri, transT, t, b)
}

// TrmmParallel is Trmm using up to workers goroutines (rows of B for
// side == Right, columns for side == Left), bitwise identical to Trmm.
func TrmmParallel(workers int, side Side, tri Triangle, transT bool, t, b *Matrix) {
	checkTrxmShapes(side, t, b)
	t.checkExtent()
	b.checkExtent()
	n := t.Rows
	upper := (tri == Upper) != transT // op(T) is upper triangular
	p := product{k: n, alpha: 1, a: b.Data, b: t.Data, bks: t.Stride, bjs: 1, c: b.Data}
	if transT {
		p.bks, p.bjs = 1, t.Stride
	}
	if side == Right {
		// B := B·op(T): rows of B are independent.
		p.ars, p.aks, p.cis, p.cjs = b.Stride, 1, b.Stride, 1
		p.mode = lowerB
		if upper {
			p.mode = upperB
		}
		p.run(workers, b.Rows, n, TrsmFlops(b.Rows, n))
		return
	}
	// B := op(T)·B is Bᵀ := Bᵀ·op(T)ᵀ: the same product on the
	// transposed views, whose rows are the independent columns of B.
	p.bks, p.bjs = p.bjs, p.bks
	p.ars, p.aks, p.cis, p.cjs = 1, b.Stride, 1, b.Stride
	p.mode = upperB
	if upper {
		p.mode = lowerB
	}
	p.run(workers, b.Cols, n, TrsmFlops(b.Cols, n))
}

// Trsm solves a triangular system in place against the rows or columns of
// B: with side == Right and tri == Upper it computes B = B * T⁻¹ (the
// CholeskyQR "Q = A R⁻¹" step); with side == Left and tri == Lower it
// computes B = T⁻¹ * B. transT applies the solve with Tᵀ. m*n² flops for
// Right (B m×n), n²m for Left.
func Trsm(side Side, tri Triangle, transT bool, t, b *Matrix) {
	checkTrsm(side, tri, transT, t, b)
	n := t.Rows
	switch {
	case side == Right && tri == Upper && !transT:
		// B := B U⁻¹: forward substitution across columns of each row.
		for r := 0; r < b.Rows; r++ {
			row := b.Data[r*b.Stride : r*b.Stride+n]
			for j := 0; j < n; j++ {
				v := row[j]
				for k := 0; k < j; k++ {
					v -= row[k] * t.Data[k*t.Stride+j]
				}
				row[j] = v / t.Data[j*t.Stride+j]
			}
		}
	case side == Right && tri == Lower && !transT:
		// B := B L⁻¹: backward substitution.
		for r := 0; r < b.Rows; r++ {
			row := b.Data[r*b.Stride : r*b.Stride+n]
			for j := n - 1; j >= 0; j-- {
				v := row[j]
				for k := j + 1; k < n; k++ {
					v -= row[k] * t.Data[k*t.Stride+j]
				}
				row[j] = v / t.Data[j*t.Stride+j]
			}
		}
	case side == Left && tri == Lower && !transT:
		// B := L⁻¹ B.
		for i := 0; i < n; i++ {
			d := t.Data[i*t.Stride+i]
			bi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
			for k := 0; k < i; k++ {
				lv := t.Data[i*t.Stride+k]
				if lv == 0 {
					continue
				}
				bk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
				for j := range bi {
					bi[j] -= lv * bk[j]
				}
			}
			for j := range bi {
				bi[j] /= d
			}
		}
	case side == Left && tri == Upper && !transT:
		// B := U⁻¹ B.
		for i := n - 1; i >= 0; i-- {
			d := t.Data[i*t.Stride+i]
			bi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
			for k := i + 1; k < n; k++ {
				uv := t.Data[i*t.Stride+k]
				if uv == 0 {
					continue
				}
				bk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
				for j := range bi {
					bi[j] -= uv * bk[j]
				}
			}
			for j := range bi {
				bi[j] /= d
			}
		}
	case side == Left && tri == Lower && transT:
		// B := L⁻ᵀ B — Lᵀ is upper triangular; back substitution.
		for i := n - 1; i >= 0; i-- {
			d := t.Data[i*t.Stride+i]
			bi := b.Data[i*b.Stride : i*b.Stride+b.Cols]
			for j := range bi {
				bi[j] /= d
			}
			for k := 0; k < i; k++ {
				lv := t.Data[i*t.Stride+k] // (Lᵀ)[k][i]
				if lv == 0 {
					continue
				}
				bk := b.Data[k*b.Stride : k*b.Stride+b.Cols]
				for j := range bk {
					bk[j] -= lv * bi[j]
				}
			}
		}
	case side == Right && tri == Lower && transT:
		// B := B L⁻ᵀ — Lᵀ upper: forward substitution over columns.
		for r := 0; r < b.Rows; r++ {
			row := b.Data[r*b.Stride : r*b.Stride+n]
			for j := 0; j < n; j++ {
				v := row[j]
				for k := 0; k < j; k++ {
					v -= row[k] * t.Data[j*t.Stride+k] // (Lᵀ)[k][j] = L[j][k]
				}
				row[j] = v / t.Data[j*t.Stride+j]
			}
		}
	default:
		panic("lin: Trsm variant not implemented")
	}
}

// checkTrxmShapes validates the operand shapes shared by Trsm and Trmm:
// square T and a conforming B on the chosen side.
func checkTrxmShapes(side Side, t, b *Matrix) {
	if t.Rows != t.Cols {
		panic(ErrShape)
	}
	if side == Right && b.Cols != t.Rows || side == Left && b.Rows != t.Rows {
		panic(ErrShape)
	}
}

// checkTrsm is Trsm's full validation: shapes, a nonsingular diagonal,
// and an implemented variant (the transposed solves exist for Lower
// only). Shared with BatchTRSM (a benchmark probe), which runs it for
// every item up front: its pooled per-item solves must be guaranteed
// panic-free — a panic on a pool worker cannot be recovered by the
// caller.
func checkTrsm(side Side, tri Triangle, transT bool, t, b *Matrix) {
	checkTrxmShapes(side, t, b)
	for i := 0; i < t.Rows; i++ {
		if t.Data[i*t.Stride+i] == 0 {
			panic(ErrSingular)
		}
	}
	if tri == Upper && transT {
		panic("lin: Trsm variant not implemented")
	}
}
