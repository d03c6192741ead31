package dist

import (
	"fmt"
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// Benchmarks for the pack/unpack hot path at the paper's evaluation
// shapes (§VI factors 65536×512-class matrices on Stampede2). Later PRs
// optimizing the strided copies in FromGlobal/AssembleGlobal should beat
// these numbers without changing the round-trip tests.

var benchShapes = []struct {
	m, n   int
	pr, pc int
}{
	{65536, 512, 8, 4}, // paper-scale tall matrix on a d=8, c=4 slice
	{16384, 128, 4, 2}, // mid-size
	{1024, 1024, 4, 4}, // square
}

func BenchmarkFlatten(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", s.m/s.pr, s.n/s.pc), func(b *testing.B) {
			local := lin.RandomMatrix(s.m/s.pr, s.n/s.pc, 1)
			b.SetBytes(int64(local.Rows*local.Cols) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Flatten(local)
			}
		})
	}
}

func BenchmarkFlattenStrided(b *testing.B) {
	// The view path: stride > cols forces the row-by-row copy.
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", s.m/s.pr, s.n/s.pc), func(b *testing.B) {
			backing := lin.RandomMatrix(s.m/s.pr, s.n/s.pc+8, 1)
			local := backing.View(0, 0, s.m/s.pr, s.n/s.pc)
			b.SetBytes(int64(local.Rows*local.Cols) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Flatten(local)
			}
		})
	}
}

func BenchmarkUnflatten(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d", s.m/s.pr, s.n/s.pc), func(b *testing.B) {
			flat := Flatten(lin.RandomMatrix(s.m/s.pr, s.n/s.pc, 1))
			b.SetBytes(int64(len(flat)) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Unflatten(s.m/s.pr, s.n/s.pc, flat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFromGlobal(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d_on_%dx%d", s.m, s.n, s.pr, s.pc), func(b *testing.B) {
			global := lin.RandomMatrix(s.m, s.n, 1)
			b.SetBytes(int64(s.m/s.pr*s.n/s.pc) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FromGlobal(global, s.pr, s.pc, 1%s.pr, 1%s.pc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAssembleGlobal(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(fmt.Sprintf("%dx%d_on_%dx%d", s.m, s.n, s.pr, s.pc), func(b *testing.B) {
			global := lin.RandomMatrix(s.m, s.n, 1)
			pieces := make([]*lin.Matrix, s.pr*s.pc)
			for r := range pieces {
				d, err := FromGlobal(global, s.pr, s.pc, r/s.pc, r%s.pc)
				if err != nil {
					b.Fatal(err)
				}
				pieces[r] = d.Local
			}
			b.SetBytes(int64(s.m*s.n) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AssembleGlobal(s.m, s.n, s.pr, s.pc, pieces); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGather(b *testing.B) {
	// End-to-end collective: every rank contributes its block and member
	// 0 reassembles the full matrix. Smaller than paper scale, but the
	// same code path.
	for _, s := range []struct{ m, n, pr, pc int }{
		{8192, 64, 4, 2},
		{2048, 128, 2, 2},
	} {
		b.Run(fmt.Sprintf("%dx%d_on_%dx%d", s.m, s.n, s.pr, s.pc), func(b *testing.B) {
			global := lin.RandomMatrix(s.m, s.n, 1)
			b.SetBytes(int64(s.m*s.n) * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := simmpi.RunWithOptions(s.pr*s.pc, simmpi.Options{Timeout: 120 * time.Second}, func(p *simmpi.Proc) error {
					d, err := FromGlobal(global, s.pr, s.pc, p.Rank()/s.pc, p.Rank()%s.pc)
					if err != nil {
						return err
					}
					_, err = Gather(p.World(), d.Local, s.m, s.n, s.pr, s.pc)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
