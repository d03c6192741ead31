package dist

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"fmt"
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// shapes × grids exercised by the round-trip properties: square, tall,
// wide, and uneven shapes against every grid extent from degenerate 1×1
// up to c×d grids with c ≠ d both ways. Only divisible combinations are
// run; the rejection of the rest is covered in edge_test.go.
var (
	propShapes = []struct{ m, n int }{
		{1, 1}, {4, 4}, {8, 8},
		{64, 8}, {48, 4}, {12, 20}, {6, 10}, {30, 6},
	}
	propGrids = []struct{ pr, pc int }{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 2}, {2, 4}, {3, 2}, {4, 4}, {6, 2},
	}
)

// indexedMatrix returns an m×n matrix whose (i, j) element encodes its
// global coordinates, so any misplaced element is detected exactly.
func indexedMatrix(m, n int) *lin.Matrix {
	a := lin.NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i*1000+j))
		}
	}
	return a
}

func TestFromGlobalCyclicIndexing(t *testing.T) {
	// The defining property of the layout: local (i, j) on rank (row, col)
	// is global (i·pr + row, j·pc + col).
	const m, n, pr, pc = 12, 8, 3, 2
	a := indexedMatrix(m, n)
	for row := 0; row < pr; row++ {
		for col := 0; col < pc; col++ {
			d, err := FromGlobal(a, pr, pc, row, col)
			if err != nil {
				t.Fatal(err)
			}
			if d.M != m || d.N != n || d.PR != pr || d.PC != pc || d.Row != row || d.Col != col {
				t.Fatalf("metadata %+v does not echo the call", d)
			}
			if d.Local.Rows != m/pr || d.Local.Cols != n/pc {
				t.Fatalf("local block %dx%d, want %dx%d", d.Local.Rows, d.Local.Cols, m/pr, n/pc)
			}
			for i := 0; i < d.Local.Rows; i++ {
				for j := 0; j < d.Local.Cols; j++ {
					if got, want := d.Local.At(i, j), a.At(i*pr+row, j*pc+col); got != want {
						t.Fatalf("rank (%d,%d) local (%d,%d) = %g, want global (%d,%d) = %g",
							row, col, i, j, got, i*pr+row, j*pc+col, want)
					}
				}
			}
		}
	}
}

func TestFromGlobalCopies(t *testing.T) {
	a := indexedMatrix(4, 4)
	d, err := FromGlobal(a, 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Local.Set(0, 0, -1)
	if a.At(0, 0) == -1 {
		t.Fatal("FromGlobal aliases the global matrix")
	}
}

func TestFromGlobalAssembleGlobalIdentity(t *testing.T) {
	// Property: extracting every rank's block and reassembling is the
	// identity, for all shape × grid combinations the layout admits.
	for _, s := range propShapes {
		for _, g := range propGrids {
			if s.m%g.pr != 0 || s.n%g.pc != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%dx%d_on_%dx%d", s.m, s.n, g.pr, g.pc), func(t *testing.T) {
				a := indexedMatrix(s.m, s.n)
				pieces := make([]*lin.Matrix, g.pr*g.pc)
				for row := 0; row < g.pr; row++ {
					for col := 0; col < g.pc; col++ {
						d, err := FromGlobal(a, g.pr, g.pc, row, col)
						if err != nil {
							t.Fatal(err)
						}
						pieces[row*g.pc+col] = d.Local
					}
				}
				back, err := AssembleGlobal(s.m, s.n, g.pr, g.pc, pieces)
				if err != nil {
					t.Fatal(err)
				}
				if !back.Equal(a) {
					t.Fatalf("round trip altered the matrix:\n got %v\nwant %v", back, a)
				}
			})
		}
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	a := indexedMatrix(6, 5)
	b, err := Unflatten(6, 5, Flatten(a))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(a) {
		t.Fatal("Flatten/Unflatten round trip altered the matrix")
	}
}

func TestFlattenStridedView(t *testing.T) {
	// Flatten must compact a view whose stride exceeds its width.
	a := indexedMatrix(8, 8)
	v := a.View(2, 3, 4, 2)
	flat := Flatten(v)
	if len(flat) != 8 {
		t.Fatalf("flattened view has %d elements, want 8", len(flat))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if flat[i*2+j] != a.At(2+i, 3+j) {
				t.Fatalf("flat[%d] = %g, want %g", i*2+j, flat[i*2+j], a.At(2+i, 3+j))
			}
		}
	}
}

func TestUnflattenAliasesWire(t *testing.T) {
	// A transport's result is owned by the caller, so Unflatten wraps it
	// in place: one storage, two views.
	flat := []float64{1, 2, 3, 4}
	m, err := Unflatten(2, 2, flat)
	if err != nil {
		t.Fatal(err)
	}
	flat[0] = -1
	m.Set(1, 1, -4)
	if m.At(0, 0) != -1 || flat[3] != -4 {
		t.Fatal("Unflatten copied the wire slice instead of wrapping it")
	}
}

func TestFlattenBorrowsCompactStorage(t *testing.T) {
	// A payload is only borrowed by the transport, so a compact matrix is
	// handed over as it is; a strided view has to be packed, and the
	// packed copy is private. Neither may expose spare capacity.
	a := indexedMatrix(4, 4)
	flat := Flatten(a)
	flat[5] = -1
	if a.At(1, 1) != -1 {
		t.Fatal("Flatten copied a compact matrix")
	}
	v := a.View(1, 1, 2, 2)
	packed := Flatten(v)
	packed[0] = -2
	if v.At(0, 0) == -2 {
		t.Fatal("Flatten of a strided view aliases it")
	}
	top := a.View(0, 0, 2, 4) // compact, but Data runs on past the view
	if f := Flatten(top); len(f) != 8 || cap(f) != 8 {
		t.Fatalf("Flatten of a leading row block has len %d cap %d, want 8 and 8", len(f), cap(f))
	}
}

func TestScatterGatherIdentity(t *testing.T) {
	// Property: Scatter from a root then Gather is the identity, every
	// rank's scattered block matches FromGlobal, the gathered matrix
	// arrives on member 0 and nowhere else, and it shares no storage with
	// the blocks it was built from — across tall, square, uneven shapes.
	for _, tc := range []struct{ m, n, pr, pc int }{
		{4, 4, 1, 1},   // degenerate 1×1 grid
		{64, 8, 4, 2},  // tall
		{8, 8, 2, 2},   // square
		{12, 20, 3, 2}, // uneven, wide
		{30, 6, 6, 2},  // tall, c ≠ d
	} {
		t.Run(fmt.Sprintf("%dx%d_on_%dx%d", tc.m, tc.n, tc.pr, tc.pc), func(t *testing.T) {
			a := indexedMatrix(tc.m, tc.n)
			procs := tc.pr * tc.pc
			_, err := simmpi.RunWithOptions(procs, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
				comm := p.World()
				var global *lin.Matrix
				if comm.Index() == 0 {
					global = a
				}
				d, err := Scatter(comm, 0, global, tc.m, tc.n, tc.pr, tc.pc)
				if err != nil {
					return err
				}
				want, err := FromGlobal(a, tc.pr, tc.pc, comm.Index()/tc.pc, comm.Index()%tc.pc)
				if err != nil {
					return err
				}
				if !d.Local.Equal(want.Local) {
					return fmt.Errorf("rank %d: scattered block differs from FromGlobal", comm.Index())
				}
				back, err := Gather(comm, d.Local, tc.m, tc.n, tc.pr, tc.pc)
				if err != nil {
					return err
				}
				if comm.Index() != 0 {
					if back != nil {
						return fmt.Errorf("rank %d: rooted gather returned a matrix off the root", comm.Index())
					}
					return nil
				}
				if back == nil || !back.Equal(a) {
					return fmt.Errorf("gathered matrix differs from the original")
				}
				back.Set(0, 0, -7)
				if d.Local.At(0, 0) == -7 {
					return fmt.Errorf("gathered matrix aliases the root's local block")
				}
				d.Local.Set(0, 0, -9)
				if back.At(0, 0) != -7 {
					return fmt.Errorf("the root's local block aliases the gathered matrix")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestScatterFromNonZeroRoot(t *testing.T) {
	const m, n, pr, pc = 8, 6, 2, 3
	a := indexedMatrix(m, n)
	root := pr*pc - 1
	_, err := simmpi.RunWithOptions(pr*pc, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
		comm := p.World()
		var global *lin.Matrix
		if comm.Index() == root {
			global = a
		}
		d, err := Scatter(comm, root, global, m, n, pr, pc)
		if err != nil {
			return err
		}
		want, err := FromGlobal(a, pr, pc, comm.Index()/pc, comm.Index()%pc)
		if err != nil {
			return err
		}
		if !d.Local.Equal(want.Local) {
			return fmt.Errorf("rank %d: wrong block from root %d", comm.Index(), root)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
