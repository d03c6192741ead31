package costmodel_test

import (
	"testing"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

func TestPanelCACQR2ModelMatchesRun(t *testing.T) {
	for _, tc := range []struct{ c, d, m, n, b int }{
		{1, 2, 16, 16, 4},
		{2, 2, 32, 32, 8},
		{2, 4, 32, 16, 8},
	} {
		a := lin.RandomMatrix(tc.m, tc.n, int64(tc.b))
		st, err := simmpi.RunWithOptions(tc.c*tc.d*tc.c, simmpi.Options{
			Cost:    simmpi.CostParams{Alpha: 1, Beta: 1, Gamma: 1},
			Timeout: 240 * time.Second,
		}, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), tc.c, tc.d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, tc.d, tc.c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = core.PanelCACQR2(g, ad.Local, tc.m, tc.n, tc.b, core.Params{})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := costmodel.PanelCACQR2(tc.m, tc.n, tc.b, costmodel.CACQRParams{C: tc.c, D: tc.d})
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxMsgs != want.Msgs || st.MaxWords != want.Words || st.MaxFlops != want.TotalFlops() {
			t.Fatalf("c=%d d=%d %dx%d b=%d: run (α=%d β=%d γ=%d) vs model %v",
				tc.c, tc.d, tc.m, tc.n, tc.b, st.MaxMsgs, st.MaxWords, st.MaxFlops, want)
		}
	}
}

func TestPanelVariantReducesFlopOverhead(t *testing.T) {
	// The §V claim: for near-square matrices, subpanel processing cuts
	// the CholeskyQR2 flop overhead from ~4mn² toward Householder's
	// ~2mn².
	const m, n = 1 << 13, 1 << 13
	prm := costmodel.CACQRParams{C: 8, D: 8} // P = 512
	plain, err := costmodel.CACQR2(m, n, prm)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := costmodel.PanelCACQR2(m, n, n/16, prm)
	if err != nil {
		t.Fatal(err)
	}
	if panel.TotalFlops() >= plain.TotalFlops() {
		t.Fatalf("panel flops %d not below plain %d", panel.TotalFlops(), plain.TotalFlops())
	}
	ratio := float64(panel.TotalFlops()) / float64(plain.TotalFlops())
	if ratio > 0.75 {
		t.Fatalf("panel variant saved only %.0f%%, expected ≥25%%", 100*(1-ratio))
	}
	// The price: more synchronization.
	if panel.Msgs <= plain.Msgs {
		t.Fatalf("panel variant should pay more latency: %d vs %d", panel.Msgs, plain.Msgs)
	}
}

func TestPanelModelValidation(t *testing.T) {
	if _, err := costmodel.PanelCACQR2(16, 8, 3, costmodel.CACQRParams{C: 2, D: 2}); err == nil {
		t.Fatal("c∤b accepted")
	}
	if _, err := costmodel.PanelCACQR2(16, 8, 5, costmodel.CACQRParams{C: 1, D: 2}); err == nil {
		t.Fatal("b∤n accepted")
	}
}

func TestCACQR2MemoryModel(t *testing.T) {
	// The §IV claim: c controls the memory-footprint overhead — the
	// matrix copies term mn/(dc) = c·mn/P grows linearly in c. Probe it
	// in the tall-skinny regime where that term dominates.
	{
		const m, n, p = 1 << 24, 1 << 6, 1 << 12
		var prev int64
		for c := 1; c <= 16; c *= 2 {
			d := p / (c * c)
			mem, err := costmodel.CACQR2Memory(m, n, costmodel.CACQRParams{C: c, D: d})
			if err != nil {
				t.Fatal(err)
			}
			if c > 1 && mem <= prev {
				t.Fatalf("c=%d: memory %d not above c=%d's %d (replication overhead)", c, mem, c/2, prev)
			}
			prev = mem
		}
	}
	// And the footprint formula itself: 3·mn/(dc) + 7·n²/c² words.
	const m, n = 1 << 20, 1 << 12
	mem, err := costmodel.CACQR2Memory(m, n, costmodel.CACQRParams{C: 4, D: 256})
	if err != nil {
		t.Fatal(err)
	}
	base := int64(m/256)*int64(n/4)*3 + 7*int64(n/4)*int64(n/4)
	if mem != base {
		t.Fatalf("memory %d, want %d", mem, base)
	}
	if _, err := costmodel.CACQR2Memory(10, 10, costmodel.CACQRParams{C: 3, D: 3}); err == nil {
		t.Fatal("indivisible shape accepted")
	}
}

func TestPGEQRFMemoryModel(t *testing.T) {
	mem, err := costmodel.PGEQRFMemory(1<<20, 1<<12, 1<<10, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if mem <= 0 {
		t.Fatal("empty footprint")
	}
	if _, err := costmodel.PGEQRFMemory(10, 8, 3, 2, 4); err == nil {
		t.Fatal("indivisible shape accepted")
	}
}
