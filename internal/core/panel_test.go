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

// verifyPanelQR checks the panel factorization against the unique
// positive-diagonal Householder R of the same matrix.
func verifyPanelQR(g *grid.Grid, a *lin.Matrix, qLocal, rLocal *lin.Matrix, m, n int) error {
	q, err := dist.Gather(g.Slice, qLocal, m, n, g.D, g.C)
	if err != nil {
		return err
	}
	r, err := dist.Gather(g.Cube.Slice, rLocal, n, n, g.C, g.C)
	if err != nil {
		return err
	}
	if q == nil {
		return nil // rooted gathers: member 0 of each depth slice holds both factors
	}
	if !r.IsUpperTriangular(1e-9 * float64(n)) {
		return errors.New("R not upper triangular")
	}
	if e := lin.OrthogonalityError(q); e > 1e-9 {
		return fmt.Errorf("orthogonality %g", e)
	}
	if e := lin.ResidualNorm(a, q, r); e > 1e-9 {
		return fmt.Errorf("residual %g", e)
	}
	_, rSeq, err := lin.QR(a)
	if err != nil {
		return err
	}
	if !r.EqualWithin(rSeq, 1e-8*(1+lin.MaxAbs(rSeq))) {
		return errors.New("R differs from the unique Householder R")
	}
	return nil
}

func TestPanelCACQR2NearSquare(t *testing.T) {
	// The target regime: near-square matrices where whole-matrix CQR2's
	// flop overhead is worst.
	for _, tc := range []struct{ c, d, m, n, b int }{
		{1, 2, 16, 16, 4},
		{2, 2, 32, 32, 8},
		{2, 4, 32, 16, 8},
		{2, 2, 24, 24, 8}, // b not a power of two
	} {
		t.Run(fmt.Sprintf("c%d_d%d_%dx%d_b%d", tc.c, tc.d, tc.m, tc.n, tc.b), func(t *testing.T) {
			a := lin.RandomMatrix(tc.m, tc.n, int64(tc.m+tc.b))
			_, err := simmpi.RunWithOptions(tc.c*tc.d*tc.c, simmpi.Options{Timeout: 240 * time.Second}, func(p *simmpi.Proc) error {
				g, err := grid.New(p.World(), tc.c, tc.d)
				if err != nil {
					return err
				}
				ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
				if err != nil {
					return err
				}
				q, r, err := PanelCACQR2(g, ad.Local, tc.m, tc.n, tc.b, Params{})
				if err != nil {
					return err
				}
				return verifyPanelQR(g, a, q, r, tc.m, tc.n)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPanelCACQR2FullWidthEqualsPlain(t *testing.T) {
	// b = n is a single panel: identical results to plain CA-CQR2.
	const c, d, m, n = 2, 4, 32, 8
	a := lin.RandomMatrix(m, n, 3)
	runGrid(t, c, d, func(p *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		qp, rp, err := PanelCACQR2(g, ad.Local, m, n, n, Params{})
		if err != nil {
			return err
		}
		q, r, err := CACQR2(g, ad.Local, m, n, Params{})
		if err != nil {
			return err
		}
		if !qp.EqualWithin(q, 1e-12) || !rp.EqualWithin(r, 1e-12) {
			return errors.New("b=n does not match plain CA-CQR2")
		}
		return nil
	})
}

func TestPanelCACQR2Validation(t *testing.T) {
	runGrid(t, 2, 2, func(p *simmpi.Proc, g *grid.Grid) error {
		a := lin.NewMatrix(8, 4) // local block for m=16, n=8
		if _, _, err := PanelCACQR2(g, a, 16, 8, 3, Params{}); err == nil {
			return errors.New("c∤b accepted")
		}
		if _, _, err := PanelCACQR2(g, a, 16, 8, 6, Params{}); err == nil {
			return errors.New("b∤n accepted")
		}
		if _, _, err := PanelCACQR2(g, a, 16, 8, 0, Params{}); err == nil {
			return errors.New("b=0 accepted")
		}
		return nil
	})
}

func TestPanelCACQR2IllConditionedPanelFails(t *testing.T) {
	// A zero column inside a later panel must surface an error naming
	// the panel, on every rank, without deadlock.
	const c, d, m, n, b = 2, 2, 32, 8, 4
	a := lin.RandomMatrix(m, n, 5)
	for i := 0; i < m; i++ {
		a.Set(i, 6, 0) // panel 1
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
		_, _, err = PanelCACQR2(g, ad.Local, m, n, b, Params{})
		if err == nil {
			return errors.New("singular panel accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
