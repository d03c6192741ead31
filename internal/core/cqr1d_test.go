package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

func run1D(t *testing.T, np int, body func(p *simmpi.Proc) error) *simmpi.Stats {
	t.Helper()
	st, err := simmpi.RunWithOptions(np, simmpi.Options{Timeout: 120 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// rowBlockOf returns rank r's m/np × n contiguous row block.
func rowBlockOf(a *lin.Matrix, np, r int) *lin.Matrix {
	rows := a.Rows / np
	return a.View(r*rows, 0, rows, a.Cols).Clone()
}

func TestOneDCQRFactors(t *testing.T) {
	const np, m, n = 4, 32, 6
	a := lin.RandomMatrix(m, n, 1)
	run1D(t, np, func(p *simmpi.Proc) error {
		q, r, err := OneDCQR(p.World(), rowBlockOf(a, np, p.Rank()), m, n, 0)
		if err != nil {
			return err
		}
		if !r.IsUpperTriangular(1e-12) {
			return errors.New("R not upper triangular")
		}
		// Locally check the block equation A_i = Q_i R.
		qr := lin.MatMul(q, r)
		if !qr.EqualWithin(rowBlockOf(a, np, p.Rank()), 1e-10) {
			return errors.New("local block residual too large")
		}
		return nil
	})
}

func TestOneDCQR2MatchesSequential(t *testing.T) {
	const np, m, n = 8, 64, 8
	a := lin.RandomMatrix(m, n, 2)
	_, rSeq, err := CholeskyQR2(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	run1D(t, np, func(p *simmpi.Proc) error {
		q, r, err := OneDCQR2(p.World(), rowBlockOf(a, np, p.Rank()), m, n, 0)
		if err != nil {
			return err
		}
		if !r.EqualWithin(rSeq, 1e-9) {
			return errors.New("R differs from sequential CholeskyQR2")
		}
		// Assemble Q by allgather of row blocks (blocked layout).
		flat, err := p.World().Allgather(dist.Flatten(q))
		if err != nil {
			return err
		}
		qFull, err := dist.Unflatten(m, n, flat)
		if err != nil {
			return err
		}
		if e := lin.OrthogonalityError(qFull); e > 1e-11 {
			return fmt.Errorf("orthogonality %g", e)
		}
		if e := lin.ResidualNorm(a, qFull, r); e > 1e-11 {
			return fmt.Errorf("residual %g", e)
		}
		return nil
	})
}

func TestOneDCQRCostTableIII(t *testing.T) {
	// Table III: syrk (m/P)n² + allreduce(n², P) + CholInv(n) + MM 2(m/P)n².
	const np, m, n = 4, 64, 8
	a := lin.RandomMatrix(m, n, 3)
	st := run1D(t, np, func(p *simmpi.Proc) error {
		_, _, err := OneDCQR(p.World(), rowBlockOf(a, np, p.Rank()), m, n, 0)
		return err
	})
	wantFlops := lin.SyrkFlops(m/np, n) + lin.CholFlops(n) + lin.TriInvFlops(n) + lin.TrsmFlops(m/np, n)
	if st.MaxFlops != wantFlops {
		t.Fatalf("flops %d, want %d", st.MaxFlops, wantFlops)
	}
	// Allreduce of n² words: 2·log₂P α + 2n² β.
	if st.MaxMsgs != 2*2 {
		t.Fatalf("α units %d, want 4", st.MaxMsgs)
	}
	if st.MaxWords != 2*n*n {
		t.Fatalf("β units %d, want %d", st.MaxWords, 2*n*n)
	}
}

func TestOneDCQRRejectsIndivisible(t *testing.T) {
	run1D(t, 3, func(p *simmpi.Proc) error {
		if _, _, err := OneDCQR(p.World(), lin.NewMatrix(3, 2), 10, 2, 0); err == nil {
			return errors.New("indivisible m accepted")
		}
		return nil
	})
}

func TestOneDCQR2SingleRank(t *testing.T) {
	// P=1 is sequential CQR2: same ladder, same kernels, same bits.
	const m, n = 20, 5
	a := lin.RandomMatrix(m, n, 4)
	qSeq, rSeq, err := CholeskyQR2(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	run1D(t, 1, func(p *simmpi.Proc) error {
		q, r, err := OneDCQR2(p.World(), a.Clone(), m, n, 0)
		if err != nil {
			return err
		}
		if !q.Equal(qSeq) || !r.Equal(rSeq) {
			return errors.New("P=1 is not bitwise the sequential result")
		}
		return nil
	})
}
