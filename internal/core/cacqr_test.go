package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// runGrid executes body on a c×d×c grid.
func runGrid(t *testing.T, c, d int, body func(p *simmpi.Proc, g *grid.Grid) error) *simmpi.Stats {
	t.Helper()
	st, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{Timeout: 240 * time.Second}, func(p *simmpi.Proc) error {
		g, err := grid.New(p.World(), c, d)
		if err != nil {
			return err
		}
		return body(p, g)
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// verifyQR gathers the distributed Q and R and checks the factorization
// of a against the sequential reference. The gathers are rooted: member 0
// of every subcube slice holds R and checks it; those of them that are
// also member 0 of their depth slice hold Q too and check the rest.
func verifyQR(g *grid.Grid, a *lin.Matrix, qLocal, rLocal *lin.Matrix, m, n int, tol float64) error {
	q, err := dist.Gather(g.Slice, qLocal, m, n, g.D, g.C)
	if err != nil {
		return err
	}
	r, err := dist.Gather(g.Cube.Slice, rLocal, n, n, g.C, g.C)
	if err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	if !r.IsUpperTriangular(tol * float64(n)) {
		return fmt.Errorf("R not upper triangular")
	}
	if q == nil {
		return nil
	}
	if e := lin.ResidualNorm(a, q, r); e > tol {
		return fmt.Errorf("residual %g > %g", e, tol)
	}
	if e := lin.OrthogonalityError(q); e > tol {
		return fmt.Errorf("orthogonality %g > %g", e, tol)
	}
	return nil
}

func TestCACQRSinglePass(t *testing.T) {
	// One CA-CQR pass: backward stable, Q near-orthogonal for small κ.
	const c, d, m, n = 2, 4, 32, 8
	a := lin.RandomMatrix(m, n, 1)
	runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		q, r, err := CACQR(g, ad.Local, m, n, Params{})
		if err != nil {
			return err
		}
		return verifyQR(g, a, q, r, m, n, 1e-8)
	})
}

func TestCACQR2AcrossGridShapes(t *testing.T) {
	// The tunable grid must produce correct factorizations across its
	// whole range: 1D (c=1), 3D (c=d), and intermediate shapes.
	for _, tc := range []struct{ c, d, m, n int }{
		{1, 1, 12, 4},  // sequential corner
		{1, 4, 32, 4},  // 1D grid
		{1, 8, 64, 8},  // deeper 1D grid
		{2, 2, 16, 8},  // 3D grid (c = d)
		{2, 4, 32, 8},  // tunable: two subcubes
		{2, 8, 64, 8},  // four subcubes
		{4, 4, 64, 16}, // larger 3D grid, P = 64
	} {
		t.Run(fmt.Sprintf("c%d_d%d_%dx%d", tc.c, tc.d, tc.m, tc.n), func(t *testing.T) {
			a := lin.RandomMatrix(tc.m, tc.n, int64(tc.c*100+tc.d))
			runGrid(t, tc.c, tc.d, func(p *simmpi.Proc, g *grid.Grid) error {
				ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
				if err != nil {
					return err
				}
				q, r, err := CACQR2(g, ad.Local, tc.m, tc.n, Params{})
				if err != nil {
					return err
				}
				return verifyQR(g, a, q, r, tc.m, tc.n, 1e-9)
			})
		})
	}
}

func TestCACQR2MatchesSequentialR(t *testing.T) {
	// R (positive diagonal) is unique: the distributed result must agree
	// with sequential CholeskyQR2 up to roundoff.
	const c, d, m, n = 2, 4, 32, 8
	a := lin.RandomMatrix(m, n, 9)
	_, rSeq, err := CholeskyQR2(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		_, rLocal, err := CACQR2(g, ad.Local, m, n, Params{})
		if err != nil {
			return err
		}
		r, err := dist.Gather(g.Cube.Slice, rLocal, n, n, c, c)
		if err != nil {
			return err
		}
		if r != nil && !r.EqualWithin(rSeq, 1e-9*float64(n)) {
			return fmt.Errorf("distributed R differs from sequential R")
		}
		return nil
	})
}

func TestCACQR2InverseDepthVariants(t *testing.T) {
	// InverseDepth ∈ {0, 1, 2} must all produce valid factorizations of
	// the same matrix (the paper's legend variants).
	const c, d, m, n = 2, 4, 64, 16
	a := lin.RandomMatrix(m, n, 11)
	for inv := 0; inv <= 2; inv++ {
		inv := inv
		t.Run(fmt.Sprintf("InverseDepth%d", inv), func(t *testing.T) {
			runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
				ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
				if err != nil {
					return err
				}
				q, r, err := CACQR2(g, ad.Local, m, n, Params{InverseDepth: inv})
				if err != nil {
					return err
				}
				return verifyQR(g, a, q, r, m, n, 1e-9)
			})
		})
	}
}

func TestCACQR2InverseDepthCostTradeoff(t *testing.T) {
	// Deeper InverseDepth trades flops for synchronization (§III-A): the
	// γ cost must drop and the α cost must rise.
	const c, d, m, n = 2, 2, 64, 32
	a := lin.RandomMatrix(m, n, 13)
	run := func(inv int) *simmpi.Stats {
		return runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
			ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = CACQR2(g, ad.Local, m, n, Params{InverseDepth: inv, BaseSize: 4})
			return err
		})
	}
	full := run(0)
	lazy := run(2)
	if lazy.MaxFlops >= full.MaxFlops {
		t.Fatalf("InverseDepth=2 flops %d not below InverseDepth=0 flops %d", lazy.MaxFlops, full.MaxFlops)
	}
	if lazy.MaxMsgs <= full.MaxMsgs {
		t.Fatalf("InverseDepth=2 α units %d not above InverseDepth=0 %d", lazy.MaxMsgs, full.MaxMsgs)
	}
}

func TestCACQRShapeValidation(t *testing.T) {
	runGrid(t, 1, 2, func(p *simmpi.Proc, g *grid.Grid) error {
		// m < n.
		if _, _, err := CACQR(g, lin.NewMatrix(2, 8), 4, 8, Params{}); err == nil {
			return errors.New("wide matrix accepted")
		}
		// indivisible m.
		if _, _, err := CACQR(g, lin.NewMatrix(3, 2), 7, 2, Params{}); err == nil {
			return errors.New("indivisible m accepted")
		}
		// local block mismatch.
		if _, _, err := CACQR(g, lin.NewMatrix(5, 2), 8, 2, Params{}); err == nil {
			return errors.New("bad local block accepted")
		}
		return nil
	})
}

func TestCACQR2IllConditionedFailsCleanly(t *testing.T) {
	// An exactly singular input (zero column) must propagate an error
	// from the distributed Cholesky on every rank without deadlock.
	const c, d, m, n = 2, 2, 64, 8
	a := lin.RandomMatrix(m, n, 17)
	for i := 0; i < m; i++ {
		a.Set(i, 3, 0)
	}
	_, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{Timeout: 120 * time.Second}, func(p *simmpi.Proc) error {
		g, err := grid.New(p.World(), c, d)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		_, _, err = CACQR2(g, ad.Local, m, n, Params{})
		if err == nil {
			return errors.New("ill-conditioned matrix accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCACQR2TallAndSkinny(t *testing.T) {
	// Extreme aspect ratio, the CholeskyQR sweet spot.
	const c, d, m, n = 1, 8, 512, 2
	a := lin.RandomMatrix(m, n, 19)
	runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		q, r, err := CACQR2(g, ad.Local, m, n, Params{})
		if err != nil {
			return err
		}
		return verifyQR(g, a, q, r, m, n, 1e-10)
	})
}

func TestCACQR2SquareMatrix(t *testing.T) {
	// m = n exercises the 3D-CQR2 regime.
	const c, d, n = 2, 2, 16
	a := lin.RandomMatrix(n, n, 23)
	runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		q, r, err := CACQR2(g, ad.Local, n, n, Params{})
		if err != nil {
			return err
		}
		return verifyQR(g, a, q, r, n, n, 1e-8)
	})
}
