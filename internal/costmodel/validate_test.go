package costmodel_test

import (
	"math"
	"testing"
	"time"

	"cacqr/internal/cfr3d"
	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
	"cacqr/internal/pgeqrf"
	"cacqr/internal/simmpi"
)

// These tests close the loop the reproduction depends on: the analytic
// model (used at paper scale for the figures) must match instrumented
// runs of the real algorithms at laptop scale. For the uniform CQR-family
// algorithms the per-rank maxima are exact; for PGEQRF, whose panels
// rotate, the model predicts the critical-path virtual time within a
// small tolerance.

func runRanks(t *testing.T, np int, body func(p *simmpi.Proc) error) *simmpi.Stats {
	t.Helper()
	st, err := simmpi.RunWithOptions(np, simmpi.Options{
		Cost:    simmpi.CostParams{Alpha: 1, Beta: 1, Gamma: 1},
		Timeout: 240 * time.Second,
	}, body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMM3DModelMatchesRun(t *testing.T) {
	for _, tc := range []struct{ e, m, n, k int }{{1, 4, 4, 4}, {2, 8, 8, 8}, {2, 16, 8, 4}, {4, 16, 16, 16}} {
		a := lin.RandomMatrix(tc.m, tc.n, 1)
		b := lin.RandomMatrix(tc.n, tc.k, 2)
		st := runRanks(t, tc.e*tc.e*tc.e, func(p *simmpi.Proc) error {
			cb, err := grid.NewCube(p.World(), tc.e)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, tc.e, tc.e, cb.Y, cb.X)
			if err != nil {
				return err
			}
			bd, err := dist.FromGlobal(b, tc.e, tc.e, cb.Y, cb.X)
			if err != nil {
				return err
			}
			_, err = mm3d.Multiply(cb, ad.Local, bd.Local, 1)
			return err
		})
		want := costmodel.MM3D(int64(tc.m/tc.e), int64(tc.n/tc.e), int64(tc.k/tc.e), tc.e)
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("e=%d %dx%dx%d: run (α=%d β=%d γ=%d) vs model %v",
				tc.e, tc.m, tc.n, tc.k, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestCFR3DModelMatchesRun(t *testing.T) {
	// Validates the Table II recurrence structure.
	for _, tc := range []struct{ e, n, base, inv int }{
		{1, 8, 2, 0},
		{2, 8, 2, 0},
		{2, 16, 4, 0},
		{2, 16, 16, 0},
		{2, 32, 4, 1},
		{2, 32, 4, 2},
		{4, 16, 4, 0},
	} {
		a := lin.RandomSPD(tc.n, int64(tc.n))
		st := runRanks(t, tc.e*tc.e*tc.e, func(p *simmpi.Proc) error {
			cb, err := grid.NewCube(p.World(), tc.e)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, tc.e, tc.e, cb.Y, cb.X)
			if err != nil {
				return err
			}
			_, err = cfr3d.Factor(cb, ad.Local, tc.n, cfr3d.Options{BaseSize: tc.base, InverseDepth: tc.inv})
			return err
		})
		want := costmodel.CFR3D(tc.n, tc.e, costmodel.CFR3DOptions{BaseSize: tc.base, InverseDepth: tc.inv})
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("e=%d n=%d base=%d inv=%d: run (α=%d β=%d γ=%d) vs model %v",
				tc.e, tc.n, tc.base, tc.inv, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestOneDCQRModelMatchesRun(t *testing.T) {
	// Validates Tables III and IV: CA-CQR and CA-CQR2 on the 1D grid
	// charge exactly the 1D closed forms, but for the fold R = R₂·R₁,
	// charged the n³ its triangular product runs (the paper writes n³/3).
	const np, m, n = 4, 64, 8
	a := lin.RandomMatrix(m, n, 3)
	mloc, nn := int64(m/np), int64(n)
	tableIII := costmodel.Allreduce(nn*nn, np)
	tableIII.Flops = 2*mloc*nn*nn + 2*nn*nn*nn/3 + nn*nn*nn/3
	tableIV := tableIII.Scale(2)
	tableIV.Flops += nn * nn * nn
	for _, tc := range []struct {
		passes int
		run    func(*grid.Grid, *lin.Matrix, int, int, core.Params) (*lin.Matrix, *lin.Matrix, error)
		model  func(int, int, costmodel.CACQRParams) (costmodel.Cost, error)
		want   costmodel.Cost
	}{{1, core.CACQR, costmodel.CACQR, tableIII}, {2, core.CACQR2, costmodel.CACQR2, tableIV}} {
		passes, want := tc.passes, tc.want
		st := runRanks(t, np, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), 1, np)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, np, 1, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = tc.run(g, ad.Local, m, n, core.Params{})
			return err
		})
		got, err := tc.model(m, n, costmodel.CACQRParams{C: 1, D: np})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%d passes: model %v, closed form %v", passes, got, want)
		}
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("%d passes: run (α=%d β=%d γ=%d) vs model %v", passes, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestCACQRModelMatchesRun(t *testing.T) {
	// Validates Tables V and VI across grid shapes and InverseDepth.
	for _, tc := range []struct{ c, d, m, n, inv int }{
		{1, 4, 32, 4, 0},
		{2, 2, 16, 8, 0},
		{2, 4, 32, 8, 0},
		{2, 4, 64, 16, 1},
		{2, 8, 64, 8, 0},
	} {
		a := lin.RandomMatrix(tc.m, tc.n, int64(tc.c+tc.d))
		st := runRanks(t, tc.c*tc.d*tc.c, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), tc.c, tc.d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = core.CACQR(g, ad.Local, tc.m, tc.n, core.Params{InverseDepth: tc.inv})
			return err
		})
		want, err := costmodel.CACQR(tc.m, tc.n, costmodel.CACQRParams{C: tc.c, D: tc.d, InverseDepth: tc.inv})
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("c=%d d=%d %dx%d inv=%d: run (α=%d β=%d γ=%d) vs model %v",
				tc.c, tc.d, tc.m, tc.n, tc.inv, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestCACQR2ModelMatchesRun(t *testing.T) {
	for _, tc := range []struct{ c, d, m, n int }{
		{2, 4, 32, 8},
		{2, 2, 16, 8},
	} {
		a := lin.RandomMatrix(tc.m, tc.n, 7)
		st := runRanks(t, tc.c*tc.d*tc.c, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), tc.c, tc.d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = core.CACQR2(g, ad.Local, tc.m, tc.n, core.Params{})
			return err
		})
		want, err := costmodel.CACQR2(tc.m, tc.n, costmodel.CACQRParams{C: tc.c, D: tc.d})
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("c=%d d=%d: run (α=%d β=%d γ=%d) vs model %v",
				tc.c, tc.d, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestPGEQRFModelMatchesRunTime(t *testing.T) {
	// Panels rotate around process columns, so validate against the
	// critical-path virtual time rather than per-rank counters.
	for _, tc := range []struct{ pr, pc, m, n, nb int }{
		{2, 2, 32, 16, 4},
		{4, 2, 64, 32, 8},
		{2, 1, 32, 16, 4},
	} {
		a := lin.RandomMatrix(tc.m, tc.n, 11)
		st := runRanks(t, tc.pr*tc.pc, func(p *simmpi.Proc) error {
			g, err := pgeqrf.NewGrid(p.World(), tc.pr, tc.pc)
			if err != nil {
				return err
			}
			am, err := pgeqrf.NewMatrix(g, a, tc.nb)
			if err != nil {
				return err
			}
			_, err = pgeqrf.Factor(am)
			return err
		})
		want, err := costmodel.PGEQRF(tc.m, tc.n, tc.pr, tc.pc, tc.nb)
		if err != nil {
			t.Fatal(err)
		}
		// With α=β=γ=1 the model time is just the component sum.
		modelTime := float64(want.Msgs + want.Words + want.TotalFlops())
		if rel := math.Abs(st.Time-modelTime) / modelTime; rel > 0.25 {
			t.Fatalf("pr=%d pc=%d %dx%d nb=%d: run time %.0f vs model %.0f (rel %.2f)",
				tc.pr, tc.pc, tc.m, tc.n, tc.nb, st.Time, modelTime, rel)
		}
	}
}

func TestUniformAlgorithmsTimeDecomposition(t *testing.T) {
	// For the uniform CA-CQR2, the virtual time must equal
	// α·Msgs + β·Words + γ·Flops of the per-rank maxima (the same rank
	// attains all three), confirming Time is exactly the paper's cost
	// expression.
	const c, d, m, n = 2, 4, 32, 8
	a := lin.RandomMatrix(m, n, 13)
	st := runRanks(t, c*d*c, func(p *simmpi.Proc) error {
		g, err := grid.New(p.World(), c, d)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		_, _, err = core.CACQR2(g, ad.Local, m, n, core.Params{})
		return err
	})
	sum := float64(st.MaxMsgs + st.MaxWords + st.MaxFlops)
	if math.Abs(st.Time-sum)/sum > 1e-9 {
		t.Fatalf("time %.0f differs from cost decomposition %.0f", st.Time, sum)
	}
}

func TestModelScalesDownCommunicationWithC(t *testing.T) {
	// Table I shape check at fixed P: raising c (more replication)
	// lowers the bandwidth cost for square-ish matrices.
	const m, n = 1 << 14, 1 << 12
	w1, err := costmodel.CACQR2(m, n, costmodel.CACQRParams{C: 2, D: 128}) // P = 512
	if err != nil {
		t.Fatal(err)
	}
	w2, err := costmodel.CACQR2(m, n, costmodel.CACQRParams{C: 8, D: 8}) // P = 512
	if err != nil {
		t.Fatal(err)
	}
	if w2.Words >= w1.Words {
		t.Fatalf("c=8 words %d not below c=2 words %d", w2.Words, w1.Words)
	}
	if w2.Msgs <= w1.Msgs {
		t.Fatalf("c=8 msgs %d not above c=2 msgs %d (synchronization tradeoff)", w2.Msgs, w1.Msgs)
	}
}
