package core

import (
	"errors"
	"fmt"
	"testing"

	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// The 1D algorithms (Algorithms 6–7) are CA-CQR and CA-CQR2 on a
// 1 × P × 1 grid: each rank holds m/P cyclic rows, its subcube is itself,
// and R is whole on every rank. These tests hold that corner to the
// paper's 1D tables and to the sequential drivers.

// runOneD runs body on a 1 × np × 1 grid with the rank's cyclic rows of a.
func runOneD(t *testing.T, np int, a *lin.Matrix, body func(g *grid.Grid, local *lin.Matrix) error) *simmpi.Stats {
	t.Helper()
	return runGrid(t, 1, np, func(_ *simmpi.Proc, g *grid.Grid) error {
		ad, err := dist.FromGlobal(a, np, 1, g.Y, g.X)
		if err != nil {
			return err
		}
		return body(g, ad.Local)
	})
}

func TestOneDCQRFactors(t *testing.T) {
	const np, m, n = 4, 32, 6
	a := lin.RandomMatrix(m, n, 1)
	runOneD(t, np, a, func(g *grid.Grid, local *lin.Matrix) error {
		q, r, err := CACQR(g, local, m, n, Params{})
		if err != nil {
			return err
		}
		if !r.IsUpperTriangular(1e-12) {
			return errors.New("R not upper triangular")
		}
		// Locally check the block equation A_i = Q_i R.
		if !lin.MatMul(q, r).EqualWithin(local, 1e-10) {
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
	runOneD(t, np, a, func(g *grid.Grid, local *lin.Matrix) error {
		q, r, err := CACQR2(g, local, m, n, Params{})
		if err != nil {
			return err
		}
		if !r.EqualWithin(rSeq, 1e-9) {
			return errors.New("R differs from sequential CholeskyQR2")
		}
		return verifyQR(g, a, q, r, m, n, 1e-11)
	})
}

func TestOneDCQRCostTableIII(t *testing.T) {
	// Table III: syrk (m/P)n² + allreduce(n², P) + CholInv(n) + the
	// TRMM-rate MM (m/P)n².
	const np, m, n = 4, 64, 8
	a := lin.RandomMatrix(m, n, 3)
	st := runOneD(t, np, a, func(g *grid.Grid, local *lin.Matrix) error {
		_, _, err := CACQR(g, local, m, n, Params{})
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
	runGrid(t, 1, 3, func(_ *simmpi.Proc, g *grid.Grid) error {
		if _, _, err := CACQR(g, lin.NewMatrix(3, 2), 10, 2, Params{}); err == nil {
			return errors.New("indivisible m accepted")
		}
		return nil
	})
}

func TestOneDCQR2SingleRank(t *testing.T) {
	// One rank is the sequential algorithm: same ladder, same kernels,
	// same bits — plain and shifted.
	const m, n = 20, 5
	for _, tc := range []struct {
		name   string
		a      *lin.Matrix
		seq    func(*lin.Matrix, int) (*lin.Matrix, *lin.Matrix, error)
		onGrid func(*grid.Grid, *lin.Matrix, int, int, Params) (*lin.Matrix, *lin.Matrix, error)
	}{
		{"cqr2", lin.RandomMatrix(m, n, 4), CholeskyQR2, CACQR2},
		{"shifted-cqr3", lin.RandomWithCond(m, n, 1e10, 4), ShiftedCQR3, ShiftedCACQR3},
	} {
		qSeq, rSeq, err := tc.seq(tc.a, 1)
		if err != nil {
			t.Fatal(err)
		}
		runOneD(t, 1, tc.a, func(g *grid.Grid, local *lin.Matrix) error {
			q, r, err := tc.onGrid(g, local, m, n, Params{})
			if err != nil {
				return err
			}
			if !q.Equal(qSeq) || !r.Equal(rSeq) {
				return fmt.Errorf("%s: one rank is not bitwise the sequential result", tc.name)
			}
			return nil
		})
	}
}

// TestShiftedCACQR3OnGrids runs the shifted ladder on the 1D grid and on
// 2×2×2 at κ = 1e12, far beyond plain CA-CQR2: Q and R must be accurate,
// R must match the sequential ShiftedCQR3 to roundoff, and the counts
// must be the cost model's — the shift's trace one one-word Allreduce
// over the subcube slice on top of CA-CQR and CA-CQR2, nothing at c = 1.
func TestShiftedCACQR3OnGrids(t *testing.T) {
	const m, n = 256, 32
	for _, tc := range []struct{ c, d int }{{1, 8}, {2, 2}} {
		for _, seed := range []int64{7, 11} {
			t.Run(fmt.Sprintf("%dx%dx%d/seed%d", tc.c, tc.d, tc.c, seed), func(t *testing.T) {
				a := lin.RandomWithCond(m, n, 1e12, seed)
				_, rSeq, err := ShiftedCQR3(a, 1)
				if err != nil {
					t.Fatal(err)
				}
				run := func(check func(g *grid.Grid, q, r *lin.Matrix) error) *simmpi.Stats {
					return runGrid(t, tc.c, tc.d, func(_ *simmpi.Proc, g *grid.Grid) error {
						ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
						if err != nil {
							return err
						}
						q, r, err := ShiftedCACQR3(g, ad.Local, m, n, Params{})
						if err != nil || check == nil {
							return err
						}
						return check(g, q, r)
					})
				}
				run(func(g *grid.Grid, q, r *lin.Matrix) error {
					if err := verifyQR(g, a, q, r, m, n, 1e-12); err != nil {
						return err
					}
					rG, err := dist.Gather(g.Cube.Slice, r, n, n, g.C, g.C)
					if err != nil || rG == nil {
						return err
					}
					if tol := 1e-10 * lin.FrobeniusNorm(rSeq); !rG.EqualWithin(rSeq, tol) {
						return fmt.Errorf("R differs from sequential ShiftedCQR3 beyond %g", tol)
					}
					return nil
				})
				st := run(nil)
				prm := costmodel.CACQRParams{C: tc.c, D: tc.d}
				one, err := costmodel.CACQR(m, n, prm)
				if err != nil {
					t.Fatal(err)
				}
				two, err := costmodel.CACQR2(m, n, prm)
				if err != nil {
					t.Fatal(err)
				}
				nloc := int64(n / tc.c)
				want := one.Add(costmodel.Allreduce(1, tc.c*tc.c)).Add(two).Add(costmodel.MM3DTri(nloc, nloc, nloc, tc.c))
				if got := (costmodel.Cost{Msgs: st.MaxMsgs, Words: st.MaxWords, Flops: st.MaxFlops}); got != want {
					t.Fatalf("measured %+v, want CA-CQR + one-word Allreduce + CA-CQR2 + a fold = %+v", got, want)
				}
				if model, err := costmodel.ShiftedCACQR3(m, n, prm); err != nil || model != want {
					t.Fatalf("costmodel.ShiftedCACQR3 = %+v, %v; want %+v", model, err, want)
				}
			})
		}
	}
}
