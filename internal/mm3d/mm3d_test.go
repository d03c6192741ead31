package mm3d

import (
	"fmt"
	"testing"
	"time"

	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// runCube executes body on an e³-rank cube.
func runCube(t *testing.T, e int, body func(p *simmpi.Proc, cb *grid.Cube) error) *simmpi.Stats {
	t.Helper()
	st, err := simmpi.RunWithOptions(e*e*e, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := grid.NewCube(p.World(), e)
		if err != nil {
			return err
		}
		return body(p, cb)
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// localOf extracts the cyclic block of g for this cube rank.
func localOf(g *lin.Matrix, cb *grid.Cube) (*lin.Matrix, error) {
	d, err := dist.FromGlobal(g, cb.E, cb.E, cb.Y, cb.X)
	if err != nil {
		return nil, err
	}
	return d.Local, nil
}

func TestMultiplyMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ e, m, n, k int }{
		{1, 4, 4, 4},
		{2, 8, 8, 8},
		{2, 16, 8, 4},
		{2, 6, 4, 10},
		{4, 16, 16, 16},
	} {
		t.Run(fmt.Sprintf("e%d_%dx%dx%d", tc.e, tc.m, tc.n, tc.k), func(t *testing.T) {
			a := lin.RandomMatrix(tc.m, tc.n, 1)
			b := lin.RandomMatrix(tc.n, tc.k, 2)
			want := lin.MatMul(a, b)
			runCube(t, tc.e, func(p *simmpi.Proc, cb *grid.Cube) error {
				al, err := localOf(a, cb)
				if err != nil {
					return err
				}
				bl, err := localOf(b, cb)
				if err != nil {
					return err
				}
				cl, err := Multiply(cb, al, bl, 1)
				if err != nil {
					return err
				}
				wl, err := localOf(want, cb)
				if err != nil {
					return err
				}
				if !cl.EqualWithin(wl, 1e-10) {
					return fmt.Errorf("rank %d: local product mismatch", p.Rank())
				}
				return nil
			})
		})
	}
}

func TestMultiplyTallOperand(t *testing.T) {
	// CA-CQR passes A blocks whose rows are distributed over d ≠ e; MM3D
	// must only care that column distributions line up. Emulate by
	// slicing rows of a tall A across cube-y with a taller local block.
	const e, m, n = 2, 32, 8
	a := lin.RandomMatrix(m, n, 3)
	b := lin.RandomMatrix(n, n, 4)
	want := lin.MatMul(a, b)
	const d = 4 // rows distributed over d process rows, 2 groups of e
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		// Each cube owns group g of row indices ≡ {g·e + Y mod d}; here
		// emulate group 0: rows ≡ cb.Y (mod d).
		ad, err := dist.FromGlobal(a, d, e, cb.Y, cb.X)
		if err != nil {
			return err
		}
		bl, err := localOf(b, cb)
		if err != nil {
			return err
		}
		cl, err := Multiply(cb, ad.Local, bl, 1)
		if err != nil {
			return err
		}
		wd, err := dist.FromGlobal(want, d, e, cb.Y, cb.X)
		if err != nil {
			return err
		}
		if !cl.EqualWithin(wd.Local, 1e-10) {
			return fmt.Errorf("rank %d: tall product mismatch", p.Rank())
		}
		return nil
	})
}

func TestMultiplyInnerDimMismatch(t *testing.T) {
	_, err := simmpi.RunWithOptions(1, simmpi.Options{Timeout: 10 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := grid.NewCube(p.World(), 1)
		if err != nil {
			return err
		}
		_, err = Multiply(cb, lin.NewMatrix(2, 3), lin.NewMatrix(4, 2), 1)
		if err == nil {
			return fmt.Errorf("mismatched inner dims accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyCostFormula(t *testing.T) {
	// Table I: MM3D on P procs for m×n by n×k costs
	//   α: O(log P) — two bcasts (2·log₂E each) + one allreduce (2·log₂E)
	//   β: (mn + nk + mk)/P^{2/3} words (up to the 2× collective factor)
	//   γ: 2mnk/P flops.
	const e, m, n, k = 2, 16, 16, 16
	a := lin.RandomMatrix(m, n, 5)
	b := lin.RandomMatrix(n, k, 6)
	st := runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		al, err := localOf(a, cb)
		if err != nil {
			return err
		}
		bl, err := localOf(b, cb)
		if err != nil {
			return err
		}
		_, err = Multiply(cb, al, bl, 1)
		return err
	})
	p := e * e * e
	wantFlops := lin.GemmFlops(m, n, k) / int64(p)
	if st.MaxFlops != wantFlops {
		t.Fatalf("per-rank flops %d, want %d", st.MaxFlops, wantFlops)
	}
	// α cost: bcast A (2log e) + bcast B (2log e) + allreduce (2log e).
	wantMsgs := int64(6) // e=2: 2+2+2
	if st.MaxMsgs != wantMsgs {
		t.Fatalf("per-rank α units %d, want %d", st.MaxMsgs, wantMsgs)
	}
	// β cost: 2·(mn + nk)/e² (bcasts) + 2·mk/e² (allreduce).
	wantWords := int64(2 * (m*n + n*k + m*k) / (e * e))
	if st.MaxWords != wantWords {
		t.Fatalf("per-rank β units %d, want %d", st.MaxWords, wantWords)
	}
}

func TestMultiplyTriHalvesFlopCharge(t *testing.T) {
	// MultiplyInto's triangular flag leaves the numbers alone but charges
	// the TRMM rate (half the GEMM flops); communication is identical.
	const e, n = 2, 8
	a := lin.RandomMatrix(n, n, 13)
	b := lin.RandomMatrix(n, n, 14)
	run := func(tri bool) (*simmpi.Stats, *lin.Matrix) {
		var out *lin.Matrix
		st, err := simmpi.RunWithOptions(e*e*e, simmpi.Options{
			Cost:    simmpi.CostParams{Alpha: 1, Beta: 1, Gamma: 1},
			Timeout: 60 * time.Second,
		}, func(p *simmpi.Proc) error {
			cb, err := grid.NewCube(p.World(), e)
			if err != nil {
				return err
			}
			al, err := localOf(a, cb)
			if err != nil {
				return err
			}
			bl, err := localOf(b, cb)
			if err != nil {
				return err
			}
			c := lin.NewMatrix(al.Rows, bl.Cols)
			if err := MultiplyInto(cb, c, al, bl, tri, 1); err != nil {
				return err
			}
			if p.Rank() == 0 {
				out = c
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, out
	}
	full, cFull := run(false)
	tri, cTri := run(true)
	if !cFull.EqualWithin(cTri, 0) {
		t.Fatal("the triangular flag changes the numerical result")
	}
	if tri.MaxFlops*2 != full.MaxFlops {
		t.Fatalf("tri flops %d should be half of %d", tri.MaxFlops, full.MaxFlops)
	}
	if tri.MaxWords != full.MaxWords || tri.MaxMsgs != full.MaxMsgs {
		t.Fatal("the triangular flag altered communication cost")
	}
}

func TestTransposeMatchesGlobal(t *testing.T) {
	for _, e := range []int{1, 2, 4} {
		g := lin.RandomMatrix(8*e, 8*e, 7)
		gt := g.T()
		runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
			l, err := localOf(g, cb)
			if err != nil {
				return err
			}
			got, err := Transpose(cb, l)
			if err != nil {
				return err
			}
			want, err := localOf(gt, cb)
			if err != nil {
				return err
			}
			if !got.EqualWithin(want, 0) {
				return fmt.Errorf("rank %d: transpose mismatch", p.Rank())
			}
			return nil
		})
	}
}

func TestTransposeRejectsNonSquareLocal(t *testing.T) {
	_, err := simmpi.RunWithOptions(1, simmpi.Options{Timeout: 10 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := grid.NewCube(p.World(), 1)
		if err != nil {
			return err
		}
		if _, err := Transpose(cb, lin.NewMatrix(2, 3)); err == nil {
			return fmt.Errorf("non-square transpose accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyIsReplicatedAcrossSlices(t *testing.T) {
	// After MM3D, all depth-peers must hold identical C blocks.
	const e = 2
	a := lin.RandomMatrix(8, 8, 8)
	b := lin.RandomMatrix(8, 8, 9)
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		al, err := localOf(a, cb)
		if err != nil {
			return err
		}
		bl, err := localOf(b, cb)
		if err != nil {
			return err
		}
		cl, err := Multiply(cb, al, bl, 1)
		if err != nil {
			return err
		}
		sum, err := cb.ZComm.Allreduce(dist.Flatten(cl))
		if err != nil {
			return err
		}
		// If replicated, the depth-sum is e × the local block.
		for i, v := range dist.Flatten(cl) {
			if diff := sum[i] - float64(e)*v; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("rank %d: slices disagree at %d", p.Rank(), i)
			}
		}
		return nil
	})
}

// TestMultiplyIntoInPlaceAndStrided: the destination form gives Multiply's
// bits whether the left operand is a strided view or the destination
// itself, and leaves the workspace's stack where it found it.
func TestMultiplyIntoInPlaceAndStrided(t *testing.T) {
	const e, m, n = 2, 16, 8
	a := lin.RandomMatrix(m, n, 1)
	b := lin.RandomMatrix(n, n, 2)
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		al, err := localOf(a, cb)
		if err != nil {
			return err
		}
		bl, err := localOf(b, cb)
		if err != nil {
			return err
		}
		want, err := Multiply(cb, al, bl, 1)
		if err != nil {
			return err
		}
		ws := cb.Workspace(0)
		top := ws.Mark()

		inPlace := ws.Matrix(al.Rows, al.Cols)
		inPlace.CopyFrom(al)
		if err := MultiplyInto(cb, inPlace, inPlace, bl, false, 1); err != nil {
			return err
		}
		if !inPlace.Equal(want) {
			return fmt.Errorf("rank %d: product written over its left operand differs", p.Rank())
		}

		wide := lin.NewMatrix(al.Rows+2, al.Cols+3)
		view := wide.View(1, 2, al.Rows, al.Cols)
		view.CopyFrom(al)
		bWide := lin.NewMatrix(bl.Rows+1, bl.Cols+1)
		bView := bWide.View(1, 0, bl.Rows, bl.Cols)
		bView.CopyFrom(bl)
		dst := ws.Matrix(al.Rows, bl.Cols)
		before := ws.Mark()
		if err := MultiplyInto(cb, dst, view, bView, false, 1); err != nil {
			return err
		}
		if !dst.Equal(want) {
			return fmt.Errorf("rank %d: product of strided views differs", p.Rank())
		}
		if ws.Mark() != before {
			return fmt.Errorf("rank %d: MultiplyInto kept some of the workspace", p.Rank())
		}
		ws.Release(top)
		return nil
	})
}

func TestTransposeIntoOfAView(t *testing.T) {
	const e, n = 2, 8
	g := lin.RandomMatrix(n, n, 3)
	runCube(t, e, func(p *simmpi.Proc, cb *grid.Cube) error {
		l, err := localOf(g, cb)
		if err != nil {
			return err
		}
		want, err := Transpose(cb, l)
		if err != nil {
			return err
		}
		wide := lin.NewMatrix(l.Rows+1, l.Cols+2)
		view := wide.View(1, 1, l.Rows, l.Cols)
		view.CopyFrom(l)
		dst := cb.Workspace(0).Matrix(l.Rows, l.Cols)
		if err := TransposeInto(cb, dst, view); err != nil {
			return err
		}
		if !dst.Equal(want) {
			return fmt.Errorf("rank %d: transpose of a view differs", p.Rank())
		}
		return nil
	})
}
