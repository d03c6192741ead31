package core

import (
	"fmt"
	"testing"

	"cacqr/internal/costmodel"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
)

// One ladder wherever the tall matrix lives: for every number of passes,
// shifted or not, the resident and the grid adapter on the 1D grid
// (P = 4) must agree on R, and the grid's charges must be the cost
// model's where it has a row for the combination. The third adapter lives in internal/stream, which imports this
// package; its TestStreamingLadderMatchesResident holds it to the same
// results, as TestCACQR2MatchesSequentialR holds the grid at c ≥ 2.
func TestLadderAcrossAdapters(t *testing.T) {
	const m, n, np = 256, 16, 4
	a := lin.RandomMatrix(m, n, 31)
	for _, passes := range []int{1, 2, 3} {
		for _, shifted := range []bool{false, true} {
			t.Run(fmt.Sprintf("passes=%d/shifted=%v", passes, shifted), func(t *testing.T) {
				res := &resident{a: a, q: lin.NewMatrix(m, n), workers: 1}
				if _, err := Ladder(res, m, passes, shifted); err != nil {
					t.Fatal(err)
				}
				r := res.R
				if e := lin.ResidualNorm(a, res.q, r); e > 1e-13 {
					t.Errorf("resident residual %g", e)
				}

				st := runOneD(t, np, a, func(g *grid.Grid, local *lin.Matrix) error {
					_, rG, err := onGrid(g, local, m, n, passes, shifted, Params{})
					if err != nil {
						return err
					}
					if tol := 1e-12 * lin.FrobeniusNorm(r); !rG.EqualWithin(r, tol) {
						return fmt.Errorf("grid R differs from resident R beyond %g", tol)
					}
					return nil
				})
				// Per pass the syrk, CholInv and TRMM-rate update of Table
				// III; per fold the n³ triangular product the grid runs.
				want := int64(passes)*(2*lin.SyrkFlops(m/np, n)+lin.CholFlops(n)+lin.TriInvFlops(n)) +
					int64(passes-1)*int64(n)*int64(n)*int64(n)
				if st.MaxFlops != want {
					t.Errorf("grid charged %d flops, want %d", st.MaxFlops, want)
				}
				var model func(m, n int, prm costmodel.CACQRParams) (costmodel.Cost, error)
				switch {
				case passes == 1 && !shifted:
					model = costmodel.CACQR
				case passes == 2 && !shifted:
					model = costmodel.CACQR2
				case passes == 3 && shifted:
					model = costmodel.ShiftedCACQR3
				default:
					return
				}
				c, err := model(m, n, costmodel.CACQRParams{C: 1, D: np})
				if err != nil {
					t.Fatal(err)
				}
				if got := (costmodel.Cost{Msgs: st.MaxMsgs, Words: st.MaxWords, Flops: st.MaxFlops}); got != c {
					t.Errorf("grid measured %+v, model %+v", got, c)
				}
			})
		}
	}
}
