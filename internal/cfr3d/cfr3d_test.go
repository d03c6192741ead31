package cfr3d

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"fmt"
	"testing"
	"time"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
	"cacqr/internal/simmpi"
)

func runCube(t *testing.T, e int, body func(p *simmpi.Proc, cb *grid.Cube) error) *simmpi.Stats {
	t.Helper()
	st, err := simmpi.RunWithOptions(e*e*e, simmpi.Options{Timeout: 120 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := grid.NewCube(p.World(), e)
		if err != nil {
			return err
		}
		return body(p, cb)
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkFactor verifies the distributed factors against the sequential
// Cholesky of the same matrix (the factor with positive diagonal is
// unique, so blocks must agree to roundoff).
func checkFactor(a *lin.Matrix, cb *grid.Cube, res *Result, wantFullY bool) error {
	lSeq, ySeq, err := lin.CholInv(a)
	if err != nil {
		return err
	}
	wantL, err := dist.FromGlobal(lSeq, cb.E, cb.E, cb.Y, cb.X)
	if err != nil {
		return err
	}
	tol := 1e-8
	if !res.L.EqualWithin(wantL.Local, tol) {
		return fmt.Errorf("L mismatch on rank (%d,%d,%d)", cb.X, cb.Y, cb.Z)
	}
	if wantFullY {
		wantY, err := dist.FromGlobal(ySeq, cb.E, cb.E, cb.Y, cb.X)
		if err != nil {
			return err
		}
		if !res.Y.EqualWithin(wantY.Local, tol) {
			return fmt.Errorf("Y mismatch on rank (%d,%d,%d)", cb.X, cb.Y, cb.Z)
		}
	}
	return nil
}

func TestFactorMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ e, n, base int }{
		{1, 8, 2},   // pure recursion, sequential grid
		{1, 16, 16}, // pure base case
		{2, 8, 2},
		{2, 16, 4},
		{2, 16, 16}, // base case at top level (no recursion)
		{4, 16, 4},
	} {
		t.Run(fmt.Sprintf("e%d_n%d_base%d", tc.e, tc.n, tc.base), func(t *testing.T) {
			a := lin.RandomSPD(tc.n, int64(tc.n+tc.e))
			runCube(t, tc.e, func(p *simmpi.Proc, cb *grid.Cube) error {
				ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
				if err != nil {
					return err
				}
				res, err := Factor(cb, ad.Local, tc.n, Options{BaseSize: tc.base})
				if err != nil {
					return err
				}
				return checkFactor(a, cb, res, true)
			})
		})
	}
}

func TestFactorDefaultBaseSize(t *testing.T) {
	const e, n = 2, 32
	a := lin.RandomSPD(n, 5)
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
		if err != nil {
			return err
		}
		res, err := Factor(cb, ad.Local, n, Options{})
		if err != nil {
			return err
		}
		// Paper default n_o = n/E² = 8.
		if res.BaseSize != n/(e*e) {
			return fmt.Errorf("default base size %d, want %d", res.BaseSize, n/(e*e))
		}
		return checkFactor(a, cb, res, true)
	})
}

func TestFactorInverseDepth(t *testing.T) {
	// With InverseDepth=1 the top-level Y21 must be zero while L is
	// complete and the two diagonal half-inverses are exact.
	const e, n, base = 2, 16, 4
	a := lin.RandomSPD(n, 7)
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
		if err != nil {
			return err
		}
		res, err := Factor(cb, ad.Local, n, Options{BaseSize: base, InverseDepth: 1})
		if err != nil {
			return err
		}
		if err := checkFactor(a, cb, res, false); err != nil {
			return err
		}
		// Assemble Y globally over the slice and inspect blocks.
		flat, err := cb.Slice.Allgather(dist.Flatten(res.Y))
		if err != nil {
			return err
		}
		blk := res.Y.Rows * res.Y.Cols
		pieces := make([]*lin.Matrix, e*e)
		for i := range pieces {
			pieces[i], err = dist.Unflatten(res.Y.Rows, res.Y.Cols, flat[i*blk:(i+1)*blk])
			if err != nil {
				return err
			}
		}
		yGlob, err := dist.AssembleGlobal(n, n, e, e, pieces)
		if err != nil {
			return err
		}
		// Top-level off-diagonal block must be exactly zero.
		y21 := yGlob.View(n/2, 0, n/2, n/2)
		if lin.MaxAbs(y21) != 0 {
			return fmt.Errorf("Y21 formed despite InverseDepth=1")
		}
		// Diagonal blocks must invert the corresponding L blocks.
		lSeq, err := lin.Cholesky(a)
		if err != nil {
			return err
		}
		l11 := lSeq.View(0, 0, n/2, n/2).Clone()
		y11 := yGlob.View(0, 0, n/2, n/2).Clone()
		if !lin.MatMul(l11, y11).EqualWithin(lin.Identity(n/2), 1e-8) {
			return fmt.Errorf("Y11 is not L11⁻¹")
		}
		return nil
	})
}

func TestFactorRejectsBadShapes(t *testing.T) {
	_, err := simmpi.RunWithOptions(8, simmpi.Options{Timeout: 30 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := grid.NewCube(p.World(), 2)
		if err != nil {
			return err
		}
		// n not divisible by E.
		if _, err := Factor(cb, lin.NewMatrix(3, 3), 7, Options{}); err == nil {
			return fmt.Errorf("indivisible dimension accepted")
		}
		// Local block mismatched with n.
		if _, err := Factor(cb, lin.NewMatrix(3, 3), 8, Options{}); err == nil {
			return fmt.Errorf("mismatched local block accepted")
		}
		// Negative InverseDepth.
		if _, err := Factor(cb, lin.NewMatrix(4, 4), 8, Options{InverseDepth: -1}); err == nil {
			return fmt.Errorf("negative InverseDepth accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFactorIndefiniteFails(t *testing.T) {
	// A non-SPD matrix must surface ErrNotPositiveDefinite from the base
	// case on every rank, not deadlock.
	const e, n = 2, 8
	a := lin.Identity(n)
	a.Set(5, 5, -1)
	_, err := simmpi.RunWithOptions(e*e*e, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := grid.NewCube(p.World(), e)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
		if err != nil {
			return err
		}
		_, err = Factor(cb, ad.Local, n, Options{BaseSize: 4})
		if err == nil {
			return fmt.Errorf("indefinite matrix factored")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBaseSizeRounding(t *testing.T) {
	// A base size not divisible by E must be rounded up, not crash.
	const e, n = 2, 16
	a := lin.RandomSPD(n, 11)
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
		if err != nil {
			return err
		}
		res, err := Factor(cb, ad.Local, n, Options{BaseSize: 3})
		if err != nil {
			return err
		}
		if res.BaseSize%e != 0 {
			return fmt.Errorf("base size %d not aligned", res.BaseSize)
		}
		return checkFactor(a, cb, res, true)
	})
}

func TestSmallerBaseSizeCostsMoreLatency(t *testing.T) {
	// Deeper recursion (smaller n_o) must raise the α cost and lower or
	// keep the per-rank flop count — the §II-D tradeoff.
	const e, n = 2, 32
	a := lin.RandomSPD(n, 13)
	run := func(base int) *simmpi.Stats {
		return runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
			ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
			if err != nil {
				return err
			}
			_, err = Factor(cb, ad.Local, n, Options{BaseSize: base})
			return err
		})
	}
	deep := run(4)
	shallow := run(32)
	if deep.MaxMsgs <= shallow.MaxMsgs {
		t.Fatalf("deeper recursion should cost more latency: %d vs %d", deep.MaxMsgs, shallow.MaxMsgs)
	}
	if deep.MaxFlops >= shallow.MaxFlops {
		t.Fatalf("deeper recursion should cost fewer redundant flops: %d vs %d", deep.MaxFlops, shallow.MaxFlops)
	}
}

func TestInverseDepthSavesWork(t *testing.T) {
	// Skipping Y21 formation must strictly reduce flops and words.
	const e, n = 2, 32
	a := lin.RandomSPD(n, 17)
	run := func(inv int) *simmpi.Stats {
		return runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
			ad, err := dist.FromGlobal(a, cb.E, cb.E, cb.Y, cb.X)
			if err != nil {
				return err
			}
			_, err = Factor(cb, ad.Local, n, Options{BaseSize: 4, InverseDepth: inv})
			return err
		})
	}
	full := run(0)
	lazy := run(2)
	if lazy.MaxFlops >= full.MaxFlops {
		t.Fatalf("InverseDepth did not reduce flops: %d vs %d", lazy.MaxFlops, full.MaxFlops)
	}
	if lazy.MaxWords >= full.MaxWords {
		t.Fatalf("InverseDepth did not reduce words: %d vs %d", lazy.MaxWords, full.MaxWords)
	}
}

// TestApplyInvTInPlace: X = A·L⁻ᵀ written over A is X written beside it,
// bit for bit, at every depth of the blocked substitution — which is how
// CA-CQR2's second pass turns Q₁ into Q where it lies — and A·L⁻ᵀ·Lᵀ
// gives A back.
func TestApplyInvTInPlace(t *testing.T) {
	const e, n, rows, base = 2, 32, 24, 4
	spd := lin.RandomSPD(n, 9)
	a := lin.RandomMatrix(rows, n, 10)
	for k := 0; k <= 2; k++ {
		k := k
		runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
			sd, err := dist.FromGlobal(spd, e, e, cb.Y, cb.X)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, e, e, cb.Y, cb.X)
			if err != nil {
				return err
			}
			res, err := Factor(cb, sd.Local, n, Options{BaseSize: base, InverseDepth: k})
			if err != nil {
				return err
			}
			ws := cb.Workspace(0)
			beside := ws.Matrix(ad.Local.Rows, ad.Local.Cols)
			if err := ApplyInvT(cb, beside, ad.Local, res.L, res.Y, k, true, 1); err != nil {
				return err
			}
			over := ws.Matrix(ad.Local.Rows, ad.Local.Cols)
			over.CopyFrom(ad.Local)
			mark := ws.Mark()
			if err := ApplyInvT(cb, over, over, res.L, res.Y, k, true, 1); err != nil {
				return err
			}
			if ws.Mark() != mark {
				return fmt.Errorf("k=%d: ApplyInvT kept some of the workspace", k)
			}
			if !over.Equal(beside) {
				return fmt.Errorf("k=%d rank %d: in place differs from beside", k, p.Rank())
			}
			lt, err := mm3d.Transpose(cb, res.L)
			if err != nil {
				return err
			}
			back, err := mm3d.Multiply(cb, over, lt, 1)
			if err != nil {
				return err
			}
			if !back.EqualWithin(ad.Local, 1e-9) {
				return fmt.Errorf("k=%d rank %d: (A·L⁻ᵀ)·Lᵀ is not A", k, p.Rank())
			}
			return nil
		})
	}
}

// TestFactorFitsItsWorkspace: alone on a bare cube, Factor asks for a
// workspace that holds everything it takes, whatever the knobs.
func TestFactorFitsItsWorkspace(t *testing.T) {
	for _, tc := range []struct{ e, n, base, inv int }{
		{1, 16, 0, 0}, {1, 16, 4, 1}, {2, 32, 0, 0}, {2, 32, 4, 0}, {2, 32, 4, 2}, {2, 32, 32, 0}, {3, 36, 0, 1},
	} {
		tc := tc
		spd := lin.RandomSPD(tc.n, 11)
		runCube(t, tc.e, func(p *simmpi.Proc, cb *grid.Cube) error {
			sd, err := dist.FromGlobal(spd, tc.e, tc.e, cb.Y, cb.X)
			if err != nil {
				return err
			}
			if _, err := Factor(cb, sd.Local, tc.n, Options{BaseSize: tc.base, InverseDepth: tc.inv}); err != nil {
				return err
			}
			if ws := cb.Workspace(0); ws.Overflows() != 0 {
				return fmt.Errorf("%+v: %d requests overflowed the workspace (high water %d words)", tc, ws.Overflows(), ws.HighWater())
			}
			return nil
		})
	}
}
