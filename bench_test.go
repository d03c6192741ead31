package cacqr

// One benchmark per paper table and figure (regeneration cost of each
// artifact), plus real-execution benchmarks of the distributed algorithms
// at laptop scale and ablation benches for the design knobs DESIGN.md
// calls out (InverseDepth, CFR3D base size, grid shape).
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"cacqr/internal/bench"
	"cacqr/internal/core"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/pgeqrf"
	"cacqr/internal/simmpi"
	"cacqr/internal/tsqr"
)

// --- Table regeneration benches ---

func BenchmarkTable1Exponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2CFR3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable34OneDCQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table34(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable56CACQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table56(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure regeneration benches ---

func BenchmarkFig1aStrongScalingSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := bench.Fig1a(); len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig1bWeakScalingSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := bench.Fig1b(); len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig2Trace1DCQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3TraceCACQR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig3Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4BlueWatersWeak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figs := bench.Fig4(); len(figs) != 3 {
			b.Fatal("wrong panel count")
		}
	}
}

func BenchmarkFig5Stampede2Weak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figs := bench.Fig5(); len(figs) != 4 {
			b.Fatal("wrong panel count")
		}
	}
}

func BenchmarkFig6BlueWatersStrong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figs := bench.Fig6(); len(figs) != 2 {
			b.Fatal("wrong panel count")
		}
	}
}

func BenchmarkFig7Stampede2Strong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if figs := bench.Fig7(); len(figs) != 4 {
			b.Fatal("wrong panel count")
		}
	}
}

func BenchmarkAccuracySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.Accuracy(); len(out) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// --- Real-execution benches of the algorithms on the simulated runtime ---

func benchGridRun(b *testing.B, c, d, m, n, inv int) {
	b.Helper()
	a := lin.RandomMatrix(m, n, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(c*d*c, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), c, d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = core.CACQR2(g, ad.Local, m, n, core.Params{InverseDepth: inv})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCACQR2Grid1x8(b *testing.B) { benchGridRun(b, 1, 8, 256, 16, 0) }
func BenchmarkRunCACQR2Grid2x4(b *testing.B) { benchGridRun(b, 2, 4, 256, 16, 0) }
func BenchmarkRunCACQR2Grid2x8(b *testing.B) { benchGridRun(b, 2, 8, 256, 16, 0) }
func BenchmarkRunCACQR2Grid4x4(b *testing.B) { benchGridRun(b, 4, 4, 256, 16, 0) }

func BenchmarkRunOneDCQR2(b *testing.B) {
	const p, m, n = 8, 256, 16
	a := lin.RandomMatrix(m, n, 43)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(p, func(pr *simmpi.Proc) error {
			local := a.View(pr.Rank()*(m/p), 0, m/p, n).Clone()
			_, _, err := core.OneDCQR2(pr.World(), local, m, n, 0)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunPGEQRF(b *testing.B) {
	const pr, pc, m, n, nb = 4, 2, 256, 32, 8
	a := lin.RandomMatrix(m, n, 44)
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(pr*pc, func(p *simmpi.Proc) error {
			g, err := pgeqrf.NewGrid(p.World(), pr, pc)
			if err != nil {
				return err
			}
			am, err := pgeqrf.NewMatrix(g, a, nb)
			if err != nil {
				return err
			}
			_, err = pgeqrf.Factor(am)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialCQR2(b *testing.B) {
	a := lin.RandomMatrix(512, 32, 45)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CholeskyQR2(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialHouseholder(b *testing.B) {
	a := lin.RandomMatrix(512, 32, 46)
	for i := 0; i < b.N; i++ {
		if _, _, err := lin.QR(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGemm256(b *testing.B) {
	x := lin.RandomMatrix(256, 256, 47)
	y := lin.RandomMatrix(256, 256, 48)
	c := lin.NewMatrix(256, 256)
	b.SetBytes(3 * 256 * 256 * 8)
	for i := 0; i < b.N; i++ {
		lin.Gemm(false, false, 1, x, y, 0, c)
	}
}

func BenchmarkRunPanelCACQR2(b *testing.B) {
	const c, d, m, n, pw = 2, 2, 64, 32, 8
	a := lin.RandomMatrix(m, n, 49)
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(c*d*c, func(p *simmpi.Proc) error {
			g, err := grid.New(p.World(), c, d)
			if err != nil {
				return err
			}
			ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
			if err != nil {
				return err
			}
			_, _, err = core.PanelCACQR2(g, ad.Local, m, n, pw, core.Params{})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTSQR(b *testing.B) {
	const p, m, n = 8, 256, 16
	a := lin.RandomMatrix(m, n, 50)
	for i := 0; i < b.N; i++ {
		_, err := simmpi.Run(p, func(pr *simmpi.Proc) error {
			local := a.View(pr.Rank()*(m/p), 0, m/p, n).Clone()
			_, _, err := tsqr.Factor(pr.World(), local, m, n, 1)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := bench.ExtTSQR(); len(f.Series) == 0 {
			b.Fatal("empty TSQR figure")
		}
		if f := bench.ExtPanel(); len(f.Series) == 0 {
			b.Fatal("empty panel figure")
		}
		if f := bench.ExtMemory(); len(f.Series) == 0 {
			b.Fatal("empty memory figure")
		}
		if f := bench.ExtTrend(); len(f.Series) == 0 {
			b.Fatal("empty trend figure")
		}
	}
}

func BenchmarkMiniStrongRealExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.MiniStrong(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGemmParallel512(b *testing.B) {
	x := lin.RandomMatrix(512, 512, 51)
	y := lin.RandomMatrix(512, 512, 52)
	c := lin.NewMatrix(512, 512)
	b.SetBytes(3 * 512 * 512 * 8)
	for i := 0; i < b.N; i++ {
		lin.GemmParallel(0, false, false, 1, x, y, 0, c)
	}
}

// --- Ablation benches (design knobs from DESIGN.md §5) ---

func BenchmarkAblationInverseDepth0(b *testing.B) { benchGridRun(b, 2, 4, 256, 32, 0) }
func BenchmarkAblationInverseDepth1(b *testing.B) { benchGridRun(b, 2, 4, 256, 32, 1) }
func BenchmarkAblationInverseDepth2(b *testing.B) { benchGridRun(b, 2, 4, 256, 32, 2) }

func BenchmarkAblationBaseSize(b *testing.B) {
	// Model-level n_o sweep: synchronization vs bandwidth (§II-D).
	for i := 0; i < b.N; i++ {
		for base := 8; base <= 512; base *= 4 {
			c := costmodel.CFR3D(4096, 8, costmodel.CFR3DOptions{BaseSize: base})
			if c.Msgs == 0 {
				b.Fatal("empty cost")
			}
		}
	}
}

func BenchmarkAblationGridShape(b *testing.B) {
	// Model-level c sweep at fixed P: the Table I interpolation.
	const m, n, p = 1 << 21, 1 << 12, 1 << 16
	for i := 0; i < b.N; i++ {
		for c := 1; c*c*c <= p; c *= 2 {
			d := p / (c * c)
			if d < c || d%c != 0 {
				continue
			}
			if _, err := costmodel.CACQR2(m, n, costmodel.CACQRParams{C: c, D: d}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
