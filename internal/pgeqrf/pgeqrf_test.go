package pgeqrf

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
)

func runGrid(t *testing.T, pr, pc int, body func(p *simmpi.Proc, g *Grid) error) *simmpi.Stats {
	t.Helper()
	st, err := simmpi.RunWithOptions(pr*pc, simmpi.Options{Timeout: 240 * time.Second}, func(p *simmpi.Proc) error {
		g, err := NewGrid(p.World(), pr, pc)
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

// signNormalize flips rows of R so diagonals are non-negative, making
// Householder R comparable with the sign-normalized reference.
func signNormalize(r *lin.Matrix) *lin.Matrix {
	out := r.Clone()
	for i := 0; i < out.Rows; i++ {
		if out.At(i, i) < 0 {
			for j := i; j < out.Cols; j++ {
				out.Set(i, j, -out.At(i, j))
			}
		}
	}
	return out
}

func checkAgainstSequential(a *lin.Matrix, f *Factors) error {
	r, err := f.GatherR()
	if err != nil {
		return err
	}
	if !r.IsUpperTriangular(1e-10) {
		return errors.New("R not upper triangular")
	}
	_, rSeq, err := lin.QR(a)
	if err != nil {
		return err
	}
	got := signNormalize(r)
	if !got.EqualWithin(rSeq, 1e-8*(1+lin.MaxAbs(rSeq))) {
		return errors.New("R differs from sequential Householder R")
	}
	return nil
}

func TestFactorMatchesSequentialR(t *testing.T) {
	for _, tc := range []struct{ pr, pc, m, n, nb int }{
		{1, 1, 12, 8, 4},
		{2, 1, 16, 8, 4},
		{1, 2, 16, 8, 4},
		{2, 2, 32, 16, 4},
		{4, 2, 32, 16, 8},
		{2, 2, 24, 12, 2},
		{4, 4, 64, 32, 4},
	} {
		t.Run(fmt.Sprintf("%dx%d_%dx%d_nb%d", tc.pr, tc.pc, tc.m, tc.n, tc.nb), func(t *testing.T) {
			a := lin.RandomMatrix(tc.m, tc.n, int64(tc.m*tc.pr+tc.n))
			runGrid(t, tc.pr, tc.pc, func(p *simmpi.Proc, g *Grid) error {
				am, err := NewMatrix(g, a, tc.nb)
				if err != nil {
					return err
				}
				f, err := Factor(am)
				if err != nil {
					return err
				}
				return checkAgainstSequential(a, f)
			})
		})
	}
}

func TestGramPreservation(t *testing.T) {
	// QᵀQ = I implies RᵀR = AᵀA — an orthogonality check that needs no
	// explicit Q.
	const pr, pc, m, n, nb = 2, 2, 40, 12, 4
	a := lin.RandomMatrix(m, n, 7)
	gram := lin.SyrkNew(a)
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
		rtr := lin.NewMatrix(n, n)
		lin.Gemm(true, false, 1, r, r, 0, rtr)
		if !rtr.EqualWithin(gram, 1e-9*(1+lin.MaxAbs(gram))) {
			return errors.New("RᵀR ≠ AᵀA: Q not orthogonal")
		}
		return nil
	})
}

func TestFactorFlopsNearHouseholderCount(t *testing.T) {
	// The summed flops must track 2mn² − (2/3)n³ within bookkeeping
	// slack (panel-edge terms), confirming the baseline pays the
	// Householder cost the paper normalizes by.
	const pr, pc, m, n, nb = 2, 2, 64, 32, 8
	a := lin.RandomMatrix(m, n, 9)
	st := runGrid(t, pr, pc, func(p *simmpi.Proc, g *Grid) error {
		am, err := NewMatrix(g, a, nb)
		if err != nil {
			return err
		}
		_, err = Factor(am)
		return err
	})
	want := float64(lin.HouseholderQRFlops(m, n))
	got := float64(st.TotalFlops)
	if got < 0.5*want || got > 2.5*want {
		t.Fatalf("total flops %g implausible vs Householder %g", got, want)
	}
}

func TestCommunicationPattern(t *testing.T) {
	// Per panel: the owner column performs ~2·nb column allreduces; the
	// row bcast moves the V panel. With more process columns the α cost
	// per rank must not grow (panels rotate) while pure 1D column grids
	// skip row bcasts entirely.
	const m, n, nb = 32, 16, 4
	a := lin.RandomMatrix(m, n, 11)
	run := func(pr, pc int) *simmpi.Stats {
		return runGrid(t, pr, pc, func(p *simmpi.Proc, g *Grid) error {
			am, err := NewMatrix(g, a, nb)
			if err != nil {
				return err
			}
			_, err = Factor(am)
			return err
		})
	}
	oneCol := run(4, 1)
	if oneCol.MaxWords == 0 || oneCol.MaxMsgs == 0 {
		t.Fatal("1-column grid should still allreduce over rows")
	}
	twoCol := run(2, 2)
	if twoCol.MaxMsgs == 0 {
		t.Fatal("2D grid lost its messages")
	}
}

func TestRejectsBadShapes(t *testing.T) {
	runGrid(t, 2, 1, func(p *simmpi.Proc, g *Grid) error {
		// m not divisible by pr.
		if _, err := NewMatrix(g, lin.RandomMatrix(7, 4, 1), 2); err == nil {
			return errors.New("indivisible m accepted")
		}
		// nb does not divide n.
		if _, err := NewMatrix(g, lin.RandomMatrix(8, 6, 1), 4); err == nil {
			return errors.New("indivisible nb accepted")
		}
		// m < n.
		am, err := NewMatrix(g, lin.RandomMatrix(4, 8, 1), 4)
		if err != nil {
			return err
		}
		if _, err := Factor(am); err == nil {
			return errors.New("wide matrix accepted")
		}
		return nil
	})
}

func TestNewGridValidation(t *testing.T) {
	_, err := simmpi.RunWithOptions(4, simmpi.Options{Timeout: 10 * time.Second}, func(p *simmpi.Proc) error {
		if _, err := NewGrid(p.World(), 0, 2); err == nil {
			return errors.New("pr=0 accepted")
		}
		if _, err := NewGrid(p.World(), 3, 2); err == nil {
			return errors.New("oversized grid accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countingComm counts the Subgroup calls made on a communicator.
type countingComm struct {
	transport.Comm
	subgroups int
}

func (c *countingComm) Subgroup(indices []int) transport.Comm {
	c.subgroups++
	return c.Comm.Subgroup(indices)
}

func TestNewGridBuildsOnlyTheCallersGroups(t *testing.T) {
	// Three Subgroup calls on every rank whatever the grid — a rank
	// outside it included — and they connect the right ranks: a column
	// communicator's members differ in prow only, a row's in pcol only.
	for _, sh := range []struct{ pr, pc int }{{1, 1}, {4, 4}, {4, 16}, {8, 16}} {
		_, err := simmpi.RunWithOptions(sh.pr*sh.pc+1, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
			w := &countingComm{Comm: p.World()}
			g, err := NewGrid(w, sh.pr, sh.pc)
			if err != nil {
				return err
			}
			if w.subgroups != 3 {
				return fmt.Errorf("rank %d: NewGrid(%d, %d) made %d Subgroup calls, want 3", p.Rank(), sh.pr, sh.pc, w.subgroups)
			}
			if p.Rank() == sh.pr*sh.pc {
				if g != nil {
					return fmt.Errorf("rank %d is outside the grid and got one", p.Rank())
				}
				return nil
			}
			if g.World.Size() != sh.pr*sh.pc || g.World.Index() != p.Rank() || g.ColComm.Index() != g.Row || g.RowComm.Index() != g.Col {
				return fmt.Errorf("rank %d: world %d/%d, col index %d, row index %d", p.Rank(), g.World.Index(), g.World.Size(), g.ColComm.Index(), g.RowComm.Index())
			}
			col, err := g.ColComm.Allgather([]float64{float64(p.Rank())})
			if err != nil {
				return err
			}
			row, err := g.RowComm.Allgather([]float64{float64(p.Rank())})
			if err != nil {
				return err
			}
			if len(col) != sh.pr || len(row) != sh.pc {
				return fmt.Errorf("rank %d: column of %d, row of %d", p.Rank(), len(col), len(row))
			}
			for prow, r := range col {
				if int(r) != prow+sh.pr*g.Col {
					return fmt.Errorf("rank %d: column member %d is rank %v", p.Rank(), prow, r)
				}
			}
			for pcol, r := range row {
				if int(r) != g.Row+sh.pr*pcol {
					return fmt.Errorf("rank %d: row member %d is rank %v", p.Rank(), pcol, r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// rowBlock extracts the element-cyclic row block of a dense matrix for a
// grid row (the RHS layout ApplyQT expects).
func rowBlock(g *lin.Matrix, pr, row int) *lin.Matrix {
	out := lin.NewMatrix(g.Rows/pr, g.Cols)
	for li := 0; li < out.Rows; li++ {
		for j := 0; j < g.Cols; j++ {
			out.Set(li, j, g.At(li*pr+row, j))
		}
	}
	return out
}

func TestApplyQTRecoversR(t *testing.T) {
	// Qᵀ·A must equal [R; 0] — the defining property of the factored
	// form, and a direct orthogonality check on the implicit Q.
	const pr, pc, m, n, nb = 2, 2, 24, 8, 4
	a := lin.RandomMatrix(m, n, 21)
	runGrid(t, pr, pc, func(p *simmpi.Proc, g *Grid) error {
		am, err := NewMatrix(g, a, nb)
		if err != nil {
			return err
		}
		f, err := Factor(am)
		if err != nil {
			return err
		}
		qtA, err := f.ApplyQT(rowBlock(a, pr, g.Row))
		if err != nil {
			return err
		}
		r, err := f.GatherR()
		if err != nil {
			return err
		}
		for li := 0; li < qtA.Rows; li++ {
			gi := li*pr + g.Row
			for j := 0; j < n; j++ {
				want := 0.0
				if gi < n {
					want = r.At(gi, j)
				}
				if d := qtA.At(li, j) - want; d > 1e-9 || d < -1e-9 {
					return errors.New("QᵀA does not match [R; 0]")
				}
			}
		}
		return nil
	})
}

func TestApplyQTLeastSquares(t *testing.T) {
	// Solve min ‖Ax − b‖ with the factored form: x = R⁻¹ (QᵀB)[0:n].
	const pr, pc, m, n, nb = 2, 2, 32, 4, 2
	a := lin.RandomMatrix(m, n, 22)
	xTrue := []float64{1, -2, 3, -4}
	bGlob := lin.NewMatrix(m, 1)
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a.At(i, j) * xTrue[j]
		}
		bGlob.Set(i, 0, s)
	}
	runGrid(t, pr, pc, func(p *simmpi.Proc, g *Grid) error {
		am, err := NewMatrix(g, a, nb)
		if err != nil {
			return err
		}
		f, err := Factor(am)
		if err != nil {
			return err
		}
		qtb, err := f.ApplyQT(rowBlock(bGlob, pr, g.Row))
		if err != nil {
			return err
		}
		r, err := f.GatherR()
		if err != nil {
			return err
		}
		// Gather the first n entries of Qᵀb (rows gi < n).
		contrib := make([]float64, n)
		for li := 0; li < qtb.Rows; li++ {
			if gi := li*pr + g.Row; gi < n {
				contrib[gi] = qtb.At(li, 0)
			}
		}
		full, err := g.World.Allreduce(contrib)
		if err != nil {
			return err
		}
		// The column comm replicates contributions pc times.
		x := make([]float64, n)
		for j := n - 1; j >= 0; j-- {
			s := full[j] / float64(pc)
			for k := j + 1; k < n; k++ {
				s -= r.At(j, k) * x[k]
			}
			x[j] = s / r.At(j, j)
		}
		for j := range x {
			if d := x[j] - xTrue[j]; d > 1e-9 || d < -1e-9 {
				return errors.New("least-squares solution wrong")
			}
		}
		return nil
	})
}

func TestApplyQTValidation(t *testing.T) {
	runGrid(t, 2, 1, func(p *simmpi.Proc, g *Grid) error {
		am, err := NewMatrix(g, lin.RandomMatrix(8, 4, 23), 2)
		if err != nil {
			return err
		}
		f, err := Factor(am)
		if err != nil {
			return err
		}
		if _, err := f.ApplyQT(lin.NewMatrix(3, 1)); err == nil {
			return errors.New("mismatched rhs accepted")
		}
		return nil
	})
}

func TestTallSkinnyAndNearSquare(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{128, 4}, {32, 32}} {
		a := lin.RandomMatrix(tc.m, tc.n, int64(tc.m))
		runGrid(t, 2, 2, func(p *simmpi.Proc, g *Grid) error {
			am, err := NewMatrix(g, a, 2)
			if err != nil {
				return err
			}
			f, err := Factor(am)
			if err != nil {
				return err
			}
			return checkAgainstSequential(a, f)
		})
	}
}
