package lin

//lint:allow floatcompare tests assert bitwise reproducibility and exact sentinel survival, which are the kernel's documented contract

import (
	"math"
	"testing"
)

// Tests of the one tiled engine under GEMM, SYRK and TRMM: every small
// shape around the tile edges against the naive references, operands
// that are strided views inside sentinel-filled parents (the assembly
// has no bounds checks, so a stray store would land there), the worker
// pool forced on shapes far below the flop cutoff, and non-finite
// inputs.

const sentinel = -7.25e30

// embed copies m into the interior of a larger sentinel-filled parent and
// returns the interior view and the parent.
func embed(m *Matrix) (view, parent *Matrix) {
	parent = NewMatrix(m.Rows+3, m.Cols+5)
	for i := range parent.Data {
		parent.Data[i] = sentinel
	}
	view = parent.View(1, 2, m.Rows, m.Cols)
	view.CopyFrom(m)
	return view, parent
}

// sentinelIntact reports whether every cell of parent outside the
// embedded rows×cols interior still holds the sentinel.
func sentinelIntact(parent *Matrix, rows, cols int) bool {
	for i := 0; i < parent.Rows; i++ {
		for j := 0; j < parent.Cols; j++ {
			inside := i >= 1 && i < 1+rows && j >= 2 && j < 2+cols
			if !inside && parent.Data[i*parent.Stride+j] != sentinel {
				return false
			}
		}
	}
	return true
}

// tileEdges are the sizes along a tile's rows worth walking: empty, one
// row, either side of one and of two whole tiles. Walking every size up to
// 2·tileM+1 instead would spend most of the sweep between the edges.
var tileEdges = []int{0, 1, tileM - 1, tileM, tileM + 1, 2*tileM - 1, 2*tileM + 1}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b *Matrix) bool {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// scalars is the alpha/beta grid; cases walk it so that every pair
// meets many shapes without multiplying the case count by sixteen.
var scalars = []float64{0, 1, -1, 0.5}

func TestGemmSmallShapesViewsAndPool(t *testing.T) {
	const tol = 1e-13
	combo := 0
	for _, m := range tileEdges {
		for n := 0; n <= 2*tileN+1; n++ {
			for k := 0; k <= 2*tileN+1; k++ {
				for v := 0; v < 4; v++ {
					ta, tb := v&1 != 0, v&2 != 0
					alpha, beta := scalars[combo%4], scalars[combo/4%4]
					combo++
					ar, ac := m, k
					if ta {
						ar, ac = k, m
					}
					br, bc := k, n
					if tb {
						br, bc = n, k
					}
					a, aParent := embed(RandomMatrix(ar, ac, int64(combo)))
					b, bParent := embed(RandomMatrix(br, bc, int64(combo+1)))
					c0 := RandomMatrix(m, n, int64(combo+2))
					aWas, bWas := aParent.Clone(), bParent.Clone()

					want := c0.Clone()
					naiveGemm(ta, tb, alpha, a, b, beta, want)
					got, gotParent := embed(c0)
					Gemm(ta, tb, alpha, a, b, beta, got)
					if d := maxRelDiff(got, want); d > tol {
						t.Fatalf("Gemm(%v,%v) %dx%dx%d alpha=%g beta=%g: rel diff %.3g vs naive", ta, tb, m, k, n, alpha, beta, d)
					}
					if !sentinelIntact(gotParent, m, n) {
						t.Fatalf("Gemm(%v,%v) %dx%dx%d wrote outside its C view", ta, tb, m, k, n)
					}
					if !aParent.Equal(aWas) || !bParent.Equal(bWas) {
						t.Fatalf("Gemm(%v,%v) %dx%dx%d modified an input", ta, tb, m, k, n)
					}
					withOtherKernels(func() {
						again, _ := embed(c0)
						Gemm(ta, tb, alpha, a, b, beta, again)
						if !sameBits(again, got) {
							t.Fatalf("Gemm(%v,%v) %dx%dx%d alpha=%g beta=%g: kernel bodies disagree", ta, tb, m, k, n, alpha, beta)
						}
					})
					if alpha == 0 || k == 0 {
						continue // no product to schedule
					}
					for _, w := range workerCounts() {
						pooled, pooledParent := embed(c0)
						p := gemmProduct(ta, tb, alpha, a, b, beta, pooled)
						p.run(w, m, n, parallelFlopCutoff)
						if !pooled.Equal(got) || !sentinelIntact(pooledParent, m, n) {
							t.Fatalf("pooled Gemm(workers=%d, %v,%v) %dx%dx%d not bitwise equal to serial", w, ta, tb, m, k, n)
						}
					}
				}
			}
		}
	}
}

func TestSyrkSmallShapesViews(t *testing.T) {
	const tol = 1e-13
	combo := 0
	// C is n×n, so n walks every size around tileN and, past those, the
	// edges of a second tile row.
	var orders []int
	for n := 0; n <= 2*tileN+1; n++ {
		orders = append(orders, n)
	}
	orders = append(orders, 2*tileM-1, 2*tileM+1)
	for m := 0; m <= 2*tileN+1; m++ {
		for _, n := range orders {
			alpha, beta := scalars[combo%4], scalars[combo/4%4]
			combo++
			a, aParent := embed(RandomMatrix(m, n, int64(combo)))
			aWas := aParent.Clone()
			c0 := SyrkNew(RandomMatrix(3, n, int64(combo+1))) // symmetric start
			want := c0.Clone()
			naiveSyrk(alpha, a, beta, want)
			got, gotParent := embed(c0)
			Syrk(alpha, a, beta, got)
			if d := maxRelDiff(got, want); d > tol {
				t.Fatalf("Syrk %dx%d alpha=%g beta=%g: rel diff %.3g vs naive", m, n, alpha, beta, d)
			}
			if !sentinelIntact(gotParent, n, n) || !aParent.Equal(aWas) {
				t.Fatalf("Syrk %dx%d touched memory outside its C view", m, n)
			}
			withOtherKernels(func() {
				again, _ := embed(c0)
				Syrk(alpha, a, beta, again)
				if !sameBits(again, got) {
					t.Fatalf("Syrk %dx%d alpha=%g beta=%g: kernel bodies disagree", m, n, alpha, beta)
				}
			})
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if got.At(i, j) != got.At(j, i) {
						t.Fatalf("Syrk %dx%d asymmetric at (%d,%d)", m, n, i, j)
					}
				}
			}
		}
	}
}

// TestTrmmSmallShapesViews also fills the half of T that tri does not
// name with NaN: Trmm must never read it.
func TestTrmmSmallShapesViews(t *testing.T) {
	const tol = 1e-13
	for _, rhs := range tileEdges {
		for n := 0; n <= 2*tileN+1; n++ {
			for v := 0; v < 8; v++ {
				side, tri, trans := Side(v&1), Triangle(v>>1&1), v&4 != 0
				clean := wellCondTriangular(n, tri, int64(100+v))
				dirty := clean.Clone()
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if tri == Lower && j > i || tri == Upper && j < i {
							dirty.Set(i, j, math.NaN())
						}
					}
				}
				tm, tParent := embed(dirty)
				tWas := tParent.Clone()
				br, bc := rhs, n
				if side == Left {
					br, bc = n, rhs
				}
				b0 := RandomMatrix(br, bc, int64(200+v))
				want := NewMatrix(br, bc)
				if side == Right {
					naiveGemm(false, trans, 1, b0, clean, 0, want)
				} else {
					naiveGemm(trans, false, 1, clean, b0, 0, want)
				}
				got, gotParent := embed(b0)
				Trmm(side, tri, trans, tm, got)
				if d := maxRelDiff(got, want); !(d <= tol) {
					t.Fatalf("Trmm(side=%v,tri=%v,trans=%v) rhs=%d n=%d: rel diff %.3g vs naive", side, tri, trans, rhs, n, d)
				}
				if !sentinelIntact(gotParent, br, bc) {
					t.Fatalf("Trmm(side=%v,tri=%v,trans=%v) rhs=%d n=%d wrote outside its B view", side, tri, trans, rhs, n)
				}
				withOtherKernels(func() {
					again, _ := embed(b0)
					Trmm(side, tri, trans, tm, again)
					if !sameBits(again, got) {
						t.Fatalf("Trmm(side=%v,tri=%v,trans=%v) rhs=%d n=%d: kernel bodies disagree", side, tri, trans, rhs, n)
					}
				})
				for i := range tWas.Data {
					if math.Float64bits(tWas.Data[i]) != math.Float64bits(tParent.Data[i]) {
						t.Fatalf("Trmm(side=%v,tri=%v,trans=%v) modified T", side, tri, trans)
					}
				}
			}
		}
	}
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// sameWithNaN is Equal, except that two non-finite entries match.
func sameWithNaN(a, b *Matrix) bool {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			x, y := a.At(i, j), b.At(i, j)
			if nonFinite(x) != nonFinite(y) || !nonFinite(x) && x != y {
				return false
			}
		}
	}
	return true
}

// TestNonFinitePropagationAtEveryOffset is the regression test for the
// old kernels' remainder loops, which skipped a zero multiplier while
// the unrolled body did not: 0·Inf came out as 0 or NaN depending on
// the contraction index mod 4. An Inf in one operand against a zero in
// the other must poison exactly the entries it reaches, wherever in the
// contraction it sits, and identically serial, pooled and batched.
func TestNonFinitePropagationAtEveryOffset(t *testing.T) {
	const m, n, zeroRow, infCol = 6, 10, 1, 3
	kk := 2*blockK + 3
	for k0 := 0; k0 < kk; k0++ {
		for _, ta := range []bool{false, true} {
			a := RandomMatrix(m, kk, 7)
			a.Set(zeroRow, k0, 0)
			b := RandomMatrix(kk, n, 8)
			b.Set(k0, infCol, math.Inf(1))
			if ta {
				a = a.T()
			}
			c := NewMatrix(m, n)
			Gemm(ta, false, 1, a, b, 0, c)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v := c.At(i, j)
					switch {
					case j != infCol && nonFinite(v):
						t.Fatalf("transA=%v k0=%d: C(%d,%d) = %g, poisoned by an Inf it never meets", ta, k0, i, j, v)
					case j == infCol && i == zeroRow && !math.IsNaN(v):
						t.Fatalf("transA=%v k0=%d: C(%d,%d) = %g, want NaN from 0·Inf", ta, k0, i, j, v)
					case j == infCol && i != zeroRow && !math.IsInf(v, 0):
						t.Fatalf("transA=%v k0=%d: C(%d,%d) = %g, want ±Inf", ta, k0, i, j, v)
					}
				}
			}
			pooled := NewMatrix(m, n)
			p := gemmProduct(ta, false, 1, a, b, 0, pooled)
			p.run(4, m, n, parallelFlopCutoff)
			batched := NewSlab(2, m, n)
			BatchGEMM(0, ta, false, 1, SlabFrom([]*Matrix{a, a}), SlabFrom([]*Matrix{b, b}), 0, batched)
			if !sameWithNaN(pooled, c) || !sameWithNaN(batched.Item(1), c) {
				t.Fatalf("transA=%v k0=%d: serial, pooled and batched Gemm disagree on non-finite input", ta, k0)
			}
		}

		// SYRK: AᵀA with A(k0, 3) = Inf and A(k0, 1) = 0 poisons row and
		// column 3, with NaN where they cross row and column 1.
		a := RandomMatrix(kk, n, 9)
		a.Set(k0, zeroRow, 0)
		a.Set(k0, infCol, math.Inf(1))
		g := SyrkNew(a)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := g.At(i, j)
				hit := i == infCol || j == infCol
				wantNaN := hit && (i == zeroRow || j == zeroRow)
				switch {
				case !hit && nonFinite(v):
					t.Fatalf("Syrk k0=%d: C(%d,%d) = %g, poisoned by an Inf it never meets", k0, i, j, v)
				case wantNaN && !math.IsNaN(v):
					t.Fatalf("Syrk k0=%d: C(%d,%d) = %g, want NaN from 0·Inf", k0, i, j, v)
				case hit && !wantNaN && !math.IsInf(v, 0):
					t.Fatalf("Syrk k0=%d: C(%d,%d) = %g, want Inf", k0, i, j, v)
				}
			}
		}
		batched := NewSlab(2, n, n)
		BatchSYRK(0, 1, SlabFrom([]*Matrix{a, a}), 0, batched)
		if !sameWithNaN(batched.Item(0), g) || !sameWithNaN(SyrkNewParallel(4, a), g) {
			t.Fatalf("Syrk k0=%d: serial, parallel and batched disagree on non-finite input", k0)
		}
	}
}

func TestExtentCheckedBeforeTheKernelRuns(t *testing.T) {
	short := &Matrix{Rows: 8, Cols: 8, Stride: 8, Data: make([]float64, 60)}
	ok := NewMatrix(8, 8)
	for name, f := range map[string]func(){
		"Gemm A": func() { Gemm(false, false, 1, short, ok, 0, NewMatrix(8, 8)) },
		"Gemm C": func() { Gemm(false, false, 1, ok, ok, 0, short) },
		"Syrk":   func() { Syrk(1, short, 0, NewMatrix(8, 8)) },
		"Trmm":   func() { Trmm(Right, Upper, false, ok, short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a matrix whose Data is shorter than its shape", name)
				}
			}()
			f()
		}()
	}
}
