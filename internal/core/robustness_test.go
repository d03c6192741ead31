package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

func TestCACQR2SurvivesRankFailure(t *testing.T) {
	// A rank failing mid-algorithm (injected at its first Compute) must
	// abort the whole run with the injected error — no deadlock, no
	// partial success, and no breakdown: the ladder types only a
	// Cholesky that failed.
	const c, d, m, n = 2, 2, 32, 8
	a := lin.RandomMatrix(m, n, 21)
	for _, failRank := range []int{0, 3, 7} {
		_, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{
			FailEnabled: true, FailRank: failRank, Timeout: 60 * time.Second,
		}, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), c, d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = CACQR2(g, ad.Local, m, n, Params{})
			return err
		})
		if !errors.Is(err, simmpi.ErrInjectedFailure) || errors.Is(err, ErrIllConditioned) {
			t.Fatalf("failRank=%d: got %v, want the injected failure alone", failRank, err)
		}
	}
}

func TestCACQR2DeepInverseDepth(t *testing.T) {
	// InverseDepth beyond the recursion depth must still be correct: the
	// blocked solve descends to base-case-granularity inverse blocks,
	// whose leading principal sub-blocks are exact inverses.
	const c, d, m, n = 2, 4, 64, 16
	a := lin.RandomMatrix(m, n, 23)
	for _, inv := range []int{3, 5, 10} {
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

func TestCACQR2PropertyRandomSeeds(t *testing.T) {
	// Property: for any seed, the distributed factorization satisfies
	// A = Q·R with orthonormal Q, matching the sequential reference R.
	const c, d, m, n = 1, 4, 32, 4
	f := func(seed int64) bool {
		a := lin.RandomMatrix(m, n, seed)
		ok := true
		_, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), c, d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
			if err != nil {
				return err
			}
			q, r, err := CACQR2(g, ad.Local, m, n, Params{})
			if err != nil {
				return err
			}
			if e := verifyQR(g, a, q, r, m, n, 1e-9); e != nil && p.Rank() == 0 {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCACQR2ModerateConditioning(t *testing.T) {
	// κ = 1e6 is inside CQR2's stated regime: the distributed result
	// must reach machine-precision orthogonality.
	const c, d, m, n = 2, 4, 64, 8
	a := lin.RandomWithCond(m, n, 1e6, 25)
	runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		qL, rL, err := CACQR2(g, ad.Local, m, n, Params{})
		if err != nil {
			return err
		}
		q, err := dist.Gather(g.Slice, qL, m, n, d, c)
		if err != nil {
			return err
		}
		if q == nil {
			return nil // Q is gathered onto member 0 of each depth slice
		}
		if e := lin.OrthogonalityError(q); e > 1e-12 {
			return fmt.Errorf("orthogonality %g at κ=1e6", e)
		}
		_ = rL
		return nil
	})
}

func TestOneDCQR2AgreesWithCACQR2C1(t *testing.T) {
	// The c=1 CA grid and the dedicated 1D algorithm implement the same
	// mathematics: their R factors must agree to roundoff.
	const p, m, n = 4, 32, 4
	a := lin.RandomMatrix(m, n, 27)
	var r1d *lin.Matrix
	_, err := simmpi.RunWithOptions(p, simmpi.Options{Timeout: 60 * time.Second}, func(pr *simmpi.Proc) error {
		// Note: 1D uses blocked rows; CA uses cyclic rows. R is
		// row-layout independent.
		local := a.View(pr.Rank()*(m/p), 0, m/p, n).Clone()
		_, r, err := OneDCQR2(pr.World(), local, m, n, 0)
		if err != nil {
			return err
		}
		if pr.Rank() == 0 {
			r1d = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runGrid(t, 1, p, func(pr *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, p, 1, g.Y, g.X)
		if err != nil {
			return err
		}
		_, rL, err := CACQR2(g, ad.Local, m, n, Params{})
		if err != nil {
			return err
		}
		r, err := dist.Gather(g.Cube.Slice, rL, n, n, 1, 1)
		if err != nil {
			return err
		}
		if !r.EqualWithin(r1d, 1e-10) { // 1×1 cube slices: every rank is its root
			return errors.New("c=1 CA-CQR2 R differs from 1D-CQR2 R")
		}
		return nil
	})
}
