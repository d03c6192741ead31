package lin

// The batch layer. Of it, only BatchApply serves production: the
// batched CholeskyQR drivers (internal/core/batch.go) hand it one whole
// per-item factorization each, so every item stays cache-resident on one
// pool worker from its first Gram matrix to its last Q update.
//
// The rest — Slab, NewSlab, SlabFrom, (*Slab).Item, BatchSYRK, BatchGEMM
// and BatchTRSM, the pass-major strided-batch kernels that sweep a
// contiguous [batch][rows][cols] slab once per kernel — have no
// production caller. They stay only because the frozen benchmark's
// serve-batch probes (lin.batch_syrk, lin.batch_gemm, lin.batch_trsm)
// compile against them, and go when the benchmark unfreezes (ROADMAP).
// Per item each runs the serial kernel, so results are bitwise equal to
// per-item serial calls for any worker count.

// Slab is a dense stack of Batch same-shape row-major matrices: item i
// occupies Data[i*Rows*Cols : (i+1)*Rows*Cols]. The zero value is an
// empty slab. A benchmark probe only (see the header).
type Slab struct {
	Batch, Rows, Cols int
	Data              []float64
}

// NewSlab returns a zeroed batch of b r×c matrices. A benchmark probe
// only.
func NewSlab(b, r, c int) *Slab {
	if b < 0 || r < 0 || c < 0 {
		panic(ErrShape)
	}
	return &Slab{Batch: b, Rows: r, Cols: c, Data: make([]float64, b*r*c)}
}

// SlabFrom packs same-shape matrices into a new slab (data is copied).
// An empty input yields an empty slab. A benchmark probe only.
func SlabFrom(items []*Matrix) *Slab {
	if len(items) == 0 {
		return &Slab{}
	}
	r, c := items[0].Rows, items[0].Cols
	s := NewSlab(len(items), r, c)
	for i, m := range items {
		if m.Rows != r || m.Cols != c {
			panic(ErrShape)
		}
		s.Item(i).CopyFrom(m)
	}
	return s
}

// Item returns a view of item i sharing the slab's storage. A benchmark
// probe only.
func (s *Slab) Item(i int) *Matrix {
	if i < 0 || i >= s.Batch {
		panic(ErrShape)
	}
	sz := s.Rows * s.Cols
	return &Matrix{Rows: s.Rows, Cols: s.Cols, Stride: s.Cols, Data: s.Data[i*sz : (i+1)*sz]}
}

// BatchApply runs f(i) for every item index in [0, batch) using up to
// workers goroutines (0 = GOMAXPROCS) through the shared worker pool —
// one dispatch for the whole batch. f must not panic (a panic on a pool
// worker is unrecoverable) and must touch only its own item's state.
func BatchApply(workers, batch int, f func(i int)) {
	parallelFor(workers, batch, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// BatchSYRK computes C_i = beta*C_i + alpha*A_iᵀA_i for every item in one
// pool dispatch. a is [batch][m][n], c must be [batch][n][n]. Each item
// runs the serial Syrk, so results are bitwise identical to per-item
// serial calls. A benchmark probe only.
func BatchSYRK(workers int, alpha float64, a *Slab, beta float64, c *Slab) {
	if c.Batch != a.Batch || c.Rows != a.Cols || c.Cols != a.Cols {
		panic(ErrShape)
	}
	BatchApply(workers, a.Batch, func(i int) {
		Syrk(alpha, a.Item(i), beta, c.Item(i))
	})
}

// BatchGEMM computes C_i = beta*C_i + alpha*op(A_i)*op(B_i) for every
// item in one pool dispatch. Shapes are validated once for the whole
// slab (items are same-shape by construction); each item then runs the
// serial Gemm, so results are bitwise identical to per-item serial
// calls. A benchmark probe only.
func BatchGEMM(workers int, transA, transB bool, alpha float64, a, b *Slab, beta float64, c *Slab) {
	if a.Batch != b.Batch || a.Batch != c.Batch {
		panic(ErrShape)
	}
	if a.Batch == 0 {
		return
	}
	checkGemmShapes(transA, transB, a.Item(0), b.Item(0), c.Item(0))
	BatchApply(workers, a.Batch, func(i int) {
		Gemm(transA, transB, alpha, a.Item(i), b.Item(i), beta, c.Item(i))
	})
}

// BatchTRSM solves the per-item triangular systems in place — B_i :=
// B_i·T_i⁻¹ (Right) or T_i⁻¹·B_i (Left) — in one pool dispatch. t is
// [batch][n][n], b conforms on the chosen side. Validation (shape,
// nonsingular diagonals, implemented variant) runs up front for every
// item so the pooled per-item solves cannot panic; results are bitwise
// identical to per-item serial Trsm calls. A benchmark probe only.
func BatchTRSM(workers int, side Side, tri Triangle, transT bool, t, b *Slab) {
	if t.Batch != b.Batch {
		panic(ErrShape)
	}
	for i := 0; i < t.Batch; i++ {
		checkTrsm(side, tri, transT, t.Item(i), b.Item(i))
	}
	BatchApply(workers, t.Batch, func(i int) {
		Trsm(side, tri, transT, t.Item(i), b.Item(i))
	})
}
