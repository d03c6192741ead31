package costmodel

import (
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
	"cacqr/internal/tsqr"
)

func TestTSQRModelMatchesRun(t *testing.T) {
	for _, tc := range []struct{ p, m, n int }{
		{1, 16, 4},
		{2, 16, 4},
		{4, 64, 8},
		{8, 64, 4},
	} {
		a := lin.RandomMatrix(tc.m, tc.n, int64(tc.p))
		st, err := simmpi.RunWithOptions(tc.p, simmpi.Options{
			Cost:    simmpi.CostParams{Alpha: 1, Beta: 1, Gamma: 1},
			Timeout: 60 * time.Second,
		}, func(pr *simmpi.Proc) error {
			local := a.View(pr.Rank()*(tc.m/tc.p), 0, tc.m/tc.p, tc.n).Clone()
			_, _, err := tsqr.Factor(pr.World(), local, tc.m, tc.n, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := TSQR(tc.m, tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("P=%d %dx%d: run (α=%d β=%d γ=%d) vs model %v",
				tc.p, tc.m, tc.n, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestTSQRVersusCQR2Tradeoff(t *testing.T) {
	// The reference-[4] tradeoff in the tall-skinny regime: TSQR's
	// critical path carries a log P chain of n³-sized factorizations,
	// while 1D-CQR2's redundant CholInv does not grow with P.
	const mloc, n = 1 << 14, 64
	tsqrGrowth := []int64{}
	cqr2Growth := []int64{}
	for _, p := range []int{16, 256, 4096} {
		m := mloc * p
		tq, err := TSQR(m, n, p)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := CACQR2(m, n, CACQRParams{C: 1, D: p})
		if err != nil {
			t.Fatal(err)
		}
		tsqrGrowth = append(tsqrGrowth, tq.TotalFlops())
		cqr2Growth = append(cqr2Growth, cq.TotalFlops())
	}
	if tsqrGrowth[2] <= tsqrGrowth[0] {
		t.Fatal("TSQR critical-path flops should grow with P")
	}
	if cqr2Growth[2] != cqr2Growth[0] {
		t.Fatalf("1D-CQR2 per-rank flops should be P-independent at fixed m/P: %v", cqr2Growth)
	}
}

func TestTSQRValidation(t *testing.T) {
	if _, err := TSQR(10, 4, 3); err == nil {
		t.Fatal("indivisible m accepted")
	}
	if _, err := TSQR(8, 4, 4); err == nil {
		t.Fatal("short local blocks accepted")
	}
}
