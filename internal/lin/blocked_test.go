package lin

import (
	"runtime"
	"sync"
	"testing"
)

// workerCounts are the knob settings every parallel kernel is checked
// under: serial, a fixed fan-out, and whatever the host offers.
func workerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// Shapes deliberately not multiples of the 16×8 kernel tile, the 128-deep
// contraction block or the 256-row chunk; the last one is large enough to
// clear the parallel flop cutoff so the pool path actually runs.
var gemmShapes = []struct{ m, k, n int }{
	{67, 53, 131},
	{97, 200, 49},
	{130, 33, 70},
	{701, 90, 311},
}

func TestBlockedGemmMatchesNaive(t *testing.T) {
	const tol = 1e-13
	for _, sh := range gemmShapes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				ar, ac := sh.m, sh.k
				if ta {
					ar, ac = ac, ar
				}
				br, bc := sh.k, sh.n
				if tb {
					br, bc = bc, br
				}
				a := RandomMatrix(ar, ac, 101)
				b := RandomMatrix(br, bc, 102)
				c0 := RandomMatrix(sh.m, sh.n, 103)

				want := c0.Clone()
				naiveGemm(ta, tb, 1.25, a, b, 0.5, want)
				got := c0.Clone()
				Gemm(ta, tb, 1.25, a, b, 0.5, got)
				if d := maxRelDiff(got, want); d > tol {
					t.Errorf("blocked Gemm(%v,%v) %dx%dx%d: rel diff %.3g vs naive", ta, tb, sh.m, sh.k, sh.n, d)
				}
				for _, w := range workerCounts() {
					gp := c0.Clone()
					GemmParallel(w, ta, tb, 1.25, a, b, 0.5, gp)
					if !gp.Equal(got) {
						t.Errorf("GemmParallel(workers=%d, %v,%v) %dx%dx%d not bitwise equal to serial", w, ta, tb, sh.m, sh.k, sh.n)
					}
				}
			}
		}
	}
}

func TestBlockedSyrkMatchesNaive(t *testing.T) {
	const tol = 1e-13
	for _, sh := range []struct{ m, n int }{{67, 53}, {150, 131}, {2001, 121}} {
		a := RandomMatrix(sh.m, sh.n, 104)
		// Syrk accumulates a Gram matrix: it mirrors the upper triangle
		// over the lower, so the beta-scaled input must be symmetric.
		c0 := RandomMatrix(sh.n, sh.n, 105)
		for i := 0; i < sh.n; i++ {
			for j := i + 1; j < sh.n; j++ {
				c0.Set(j, i, c0.At(i, j))
			}
		}

		want := c0.Clone()
		naiveSyrk(0.75, a, 2, want)
		got := c0.Clone()
		Syrk(0.75, a, 2, got)
		if d := maxRelDiff(got, want); d > tol {
			t.Errorf("blocked Syrk %dx%d: rel diff %.3g vs naive", sh.m, sh.n, d)
		}
		for _, w := range workerCounts() {
			gp := c0.Clone()
			SyrkParallel(w, 0.75, a, 2, gp)
			if !gp.Equal(got) {
				t.Errorf("SyrkParallel(workers=%d) %dx%d not bitwise equal to serial", w, sh.m, sh.n)
			}
		}
	}
}

// trsmVariants are the solve variants the serial kernel implements.
var trsmVariants = []struct {
	side  Side
	tri   Triangle
	trans bool
}{
	{Right, Upper, false},
	{Right, Lower, false},
	{Right, Lower, true},
	{Left, Lower, false},
	{Left, Upper, false},
	{Left, Lower, true},
}

func TestBlockedTrsmSolvesAgainstNaive(t *testing.T) {
	const tol = 1e-13
	for _, sh := range []struct{ rhs, n int }{{67, 53}, {131, 97}, {1501, 130}} {
		for _, v := range trsmVariants {
			tm := wellCondTriangular(sh.n, v.tri, 106)
			br, bc := sh.rhs, sh.n
			if v.side == Left {
				br, bc = sh.n, sh.rhs
			}
			b0 := RandomMatrix(br, bc, 107)

			x := b0.Clone()
			Trsm(v.side, v.tri, v.trans, tm, x)
			// Reconstruct B from the solution with the naive multiply:
			// side Right solves X·op(T) = B, side Left op(T)·X = B.
			back := NewMatrix(br, bc)
			if v.side == Right {
				naiveGemm(false, v.trans, 1, x, tm, 0, back)
			} else {
				naiveGemm(v.trans, false, 1, tm, x, 0, back)
			}
			if d := maxRelDiff(back, b0); d > tol {
				t.Errorf("Trsm(side=%v,tri=%v,trans=%v) rhs=%d n=%d: residual %.3g", v.side, v.tri, v.trans, sh.rhs, sh.n, d)
			}
		}
	}
}

func TestBlockedTrmmMatchesNaive(t *testing.T) {
	const tol = 1e-13
	variants := []struct {
		side  Side
		tri   Triangle
		trans bool
	}{
		{Right, Upper, false}, {Right, Lower, false}, {Right, Upper, true}, {Right, Lower, true},
		{Left, Upper, false}, {Left, Lower, false}, {Left, Upper, true}, {Left, Lower, true},
	}
	for _, sh := range []struct{ rhs, n int }{{67, 53}, {1501, 130}} {
		for _, v := range variants {
			tm := wellCondTriangular(sh.n, v.tri, 108)
			br, bc := sh.rhs, sh.n
			if v.side == Left {
				br, bc = sh.n, sh.rhs
			}
			b0 := RandomMatrix(br, bc, 109)

			want := NewMatrix(br, bc)
			if v.side == Right {
				naiveGemm(false, v.trans, 1, b0, tm, 0, want)
			} else {
				naiveGemm(v.trans, false, 1, tm, b0, 0, want)
			}
			got := b0.Clone()
			Trmm(v.side, v.tri, v.trans, tm, got)
			if d := maxRelDiff(got, want); d > tol {
				t.Errorf("Trmm(side=%v,tri=%v,trans=%v) rhs=%d n=%d: rel diff %.3g vs naive", v.side, v.tri, v.trans, sh.rhs, sh.n, d)
			}
			for _, w := range workerCounts() {
				gp := b0.Clone()
				TrmmParallel(w, v.side, v.tri, v.trans, tm, gp)
				if !gp.Equal(got) {
					t.Errorf("TrmmParallel(workers=%d, side=%v,tri=%v,trans=%v) not bitwise equal to serial", w, v.side, v.tri, v.trans)
				}
			}
		}
	}
}

// TestPoolConcurrentCallers mimics the simmpi runtime: many goroutine
// "ranks" issuing parallel kernels against the one shared pool at once.
func TestPoolConcurrentCallers(t *testing.T) {
	a := RandomMatrix(701, 90, 110)
	b := RandomMatrix(90, 311, 111)
	want := MatMul(a, b)
	var wg sync.WaitGroup
	errs := make([]bool, 8)
	for r := 0; r < len(errs); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				if !MatMulParallel(4, a, b).Equal(want) {
					errs[r] = true
				}
			}
		}(r)
	}
	wg.Wait()
	for r, bad := range errs {
		if bad {
			t.Fatalf("rank %d saw a wrong parallel product under contention", r)
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		for _, w := range []int{0, 1, 3, 64} {
			hits := make([]int32, n)
			var mu sync.Mutex
			parallelFor(w, n, 7, func(lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}
