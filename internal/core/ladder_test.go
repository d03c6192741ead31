package core

import (
	"fmt"
	"math"
	"testing"

	"cacqr/internal/costmodel"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// One ladder wherever the tall matrix lives: for every number of passes,
// shifted or not, the resident and the row-block (P = 4) adapters must
// agree on R and on the measured ‖G−I‖_F, and the row block's charges
// must be the cost model's where it has a row for the combination. The
// third adapter lives in internal/stream, which imports this package;
// its TestStreamingLadderMatchesResident holds it to the same results,
// as TestCACQR2MatchesSequentialR holds the grid adapter.
func TestLadderAcrossAdapters(t *testing.T) {
	const m, n, np = 256, 16, 4
	a := lin.RandomMatrix(m, n, 31)
	for _, passes := range []int{1, 2, 3} {
		for _, shifted := range []bool{false, true} {
			t.Run(fmt.Sprintf("passes=%d/shifted=%v", passes, shifted), func(t *testing.T) {
				res := &resident{a: a, q: lin.NewMatrix(m, n), workers: 1}
				orth, err := Ladder(res, m, passes, shifted)
				if err != nil {
					t.Fatal(err)
				}
				r := res.R
				if e := lin.ResidualNorm(a, res.q, r); e > 1e-13 {
					t.Errorf("resident residual %g", e)
				}

				st := run1D(t, np, func(p *simmpi.Proc) error {
					blk := &rowBlock{resident: resident{a: rowBlockOf(a, np, p.Rank()), q: lin.NewMatrix(m/np, n), workers: 1}, comm: p.World()}
					orth2, err := Ladder(blk, m, passes, shifted)
					if err != nil {
						return err
					}
					if tol := 1e-12 * lin.FrobeniusNorm(r); !blk.R.EqualWithin(r, tol) {
						return fmt.Errorf("row-block R differs from resident R beyond %g", tol)
					}
					if math.Abs(orth2-orth) > 1e-10*math.Max(1, orth) {
						return fmt.Errorf("row-block ‖G−I‖ = %g, resident %g", orth2, orth)
					}
					return nil
				})
				// Per pass the syrk, CholInv and TRMM-rate update of Table
				// III; per fold the paper's (1/3)n³.
				want := int64(passes)*(2*lin.SyrkFlops(m/np, n)+lin.CholFlops(n)+lin.TriInvFlops(n)) +
					int64(passes-1)*lin.TriInvFlops(n)
				if st.MaxFlops != want {
					t.Errorf("row block charged %d flops, want %d", st.MaxFlops, want)
				}
				var model func(m, n, p int) (costmodel.Cost, error)
				switch {
				case passes == 1 && !shifted:
					model = costmodel.OneDCQR
				case passes == 2 && !shifted:
					model = costmodel.OneDCQR2
				case passes == 3 && shifted:
					model = costmodel.OneDShiftedCQR3
				default:
					return
				}
				c, err := model(m, n, np)
				if err != nil {
					t.Fatal(err)
				}
				if got := (costmodel.Cost{Msgs: st.MaxMsgs, Words: st.MaxWords, Flops: st.MaxFlops}); got != c {
					t.Errorf("row block measured %+v, model %+v", got, c)
				}
			})
		}
	}
}
