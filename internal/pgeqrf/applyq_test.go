package pgeqrf

import (
	"fmt"
	"testing"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// TestApplyQInvertsApplyQT: Q·(Qᵀ·B) must round-trip B — the two
// application orders are exact inverses up to roundoff, for every
// distributed right-hand side and across grid shapes.
func TestApplyQInvertsApplyQT(t *testing.T) {
	const m, n, nb, nrhs = 64, 16, 4, 3
	a := lin.RandomMatrix(m, n, 31)
	b := lin.RandomMatrix(m, nrhs, 32)
	for _, g := range []struct{ pr, pc int }{{1, 1}, {4, 1}, {2, 2}, {4, 2}} {
		g := g
		t.Run(fmt.Sprintf("%dx%d", g.pr, g.pc), func(t *testing.T) {
			runGrid(t, g.pr, g.pc, func(p *simmpi.Proc, gr *Grid) error {
				am, err := NewMatrix(gr, a, nb)
				if err != nil {
					return err
				}
				f, err := Factor(am)
				if err != nil {
					return err
				}
				mloc := am.Local.Rows
				bLoc := lin.NewMatrix(mloc, nrhs)
				for li := 0; li < mloc; li++ {
					gi := li*gr.PR + gr.Row
					for j := 0; j < nrhs; j++ {
						bLoc.Set(li, j, b.At(gi, j))
					}
				}
				qtb, err := f.ApplyQT(bLoc)
				if err != nil {
					return err
				}
				back, err := f.ApplyQ(qtb)
				if err != nil {
					return err
				}
				if !back.EqualWithin(bLoc, 1e-12) {
					return fmt.Errorf("Q·QᵀB does not round-trip B")
				}
				return nil
			})
		})
	}
}

// TestApplyQFormsExplicitQ: applying Q to the distributed identity's
// first n columns yields the reduced orthonormal factor — Q·R must
// reproduce A and QᵀQ must be the identity, on a genuinely 2D grid.
func TestApplyQFormsExplicitQ(t *testing.T) {
	const m, n, nb, pr, pc = 64, 16, 4, 4, 2
	a := lin.RandomMatrix(m, n, 33)
	runGrid(t, pr, pc, func(p *simmpi.Proc, g *Grid) error {
		am, err := NewMatrix(g, a, nb)
		if err != nil {
			return err
		}
		f, err := Factor(am)
		if err != nil {
			return err
		}
		r, err := f.GatherR()
		if err != nil {
			return err
		}
		mloc := am.Local.Rows
		e := lin.NewMatrix(mloc, n)
		for li := 0; li < mloc; li++ {
			if gi := li*g.PR + g.Row; gi < n {
				e.Set(li, gi, 1)
			}
		}
		qLoc, err := f.ApplyQ(e)
		if err != nil {
			return err
		}
		// Reassemble the global Q from this rank's rows (every process
		// column computes the same rows redundantly).
		q := lin.NewMatrix(m, n)
		for li := 0; li < mloc; li++ {
			gi := li*g.PR + g.Row
			for j := 0; j < n; j++ {
				q.Set(gi, j, qLoc.At(li, j))
			}
		}
		qAll, err := dist.Allreduce(g.World, q, nil)
		if err != nil {
			return err
		}
		qAll.Scale(1.0 / float64(g.PC)) // PC process columns each contributed
		if p.Rank() != 0 {
			return nil
		}
		if orth := lin.OrthogonalityError(qAll); orth > 1e-13 {
			return fmt.Errorf("explicit Q orthogonality %g", orth)
		}
		if resid := lin.ResidualNorm(a, qAll, r); resid > 1e-13 {
			return fmt.Errorf("explicit Q residual %g", resid)
		}
		return nil
	})
}

// TestApplyQShapeMismatch: a wrong local row count must error, not
// panic.
func TestApplyQShapeMismatch(t *testing.T) {
	const m, n, nb = 32, 8, 4
	a := lin.RandomMatrix(m, n, 35)
	runGrid(t, 2, 1, func(p *simmpi.Proc, g *Grid) error {
		am, err := NewMatrix(g, a, nb)
		if err != nil {
			return err
		}
		f, err := Factor(am)
		if err != nil {
			return err
		}
		if _, err := f.ApplyQ(lin.NewMatrix(am.Local.Rows+1, 2)); err == nil {
			return fmt.Errorf("mismatched rhs accepted")
		}
		return nil
	})
}
