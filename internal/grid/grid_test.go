package grid

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cacqr/internal/simmpi"
	"cacqr/internal/transport"
)

func runGrid(t *testing.T, c, d int, body func(p *simmpi.Proc, g *Grid) error) {
	t.Helper()
	_, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{Timeout: 30 * time.Second}, func(p *simmpi.Proc) error {
		g, err := New(p.World(), c, d)
		if err != nil {
			return err
		}
		return body(p, g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatesRoundTrip(t *testing.T) {
	runGrid(t, 2, 4, func(p *simmpi.Proc, g *Grid) error {
		want := g.X + g.C*(g.Y+g.D*g.Z)
		if p.Rank() != want {
			return fmt.Errorf("rank %d linearizes to %d", p.Rank(), want)
		}
		if g.X < 0 || g.X >= 2 || g.Y < 0 || g.Y >= 4 || g.Z < 0 || g.Z >= 2 {
			return fmt.Errorf("coords out of range: (%d,%d,%d)", g.X, g.Y, g.Z)
		}
		return nil
	})
}

func TestCommunicatorSizesAndIndices(t *testing.T) {
	runGrid(t, 2, 4, func(p *simmpi.Proc, g *Grid) error {
		checks := []struct {
			name      string
			comm      interface{ Size() int }
			size, idx int
		}{
			{"XComm", g.XComm, 2, g.X},
			{"YComm", g.YComm, 4, g.Y},
			{"ZComm", g.ZComm, 2, g.Z},
			{"Slice", g.Slice, 8, g.Y*2 + g.X},
			{"YGroup", g.YGroup, 2, g.Y % 2},
			{"YStride", g.YStride, 2, g.Y / 2},
		}
		for _, c := range checks {
			if c.comm == nil {
				return fmt.Errorf("%s missing", c.name)
			}
			if c.comm.Size() != c.size {
				return fmt.Errorf("%s size %d, want %d", c.name, c.comm.Size(), c.size)
			}
		}
		if g.XComm.Index() != g.X || g.YComm.Index() != g.Y || g.ZComm.Index() != g.Z {
			return errors.New("per-dimension comm index mismatch")
		}
		if g.Slice.Index() != g.Y*g.C+g.X {
			return fmt.Errorf("slice index %d", g.Slice.Index())
		}
		if g.YGroup.Index() != g.Y%g.C || g.YStride.Index() != g.Y/g.C {
			return errors.New("y-group indexing mismatch")
		}
		return nil
	})
}

func TestXCommConnectsCorrectRanks(t *testing.T) {
	// Allgathering ranks along XComm must yield ranks that differ only
	// in x.
	runGrid(t, 2, 2, func(p *simmpi.Proc, g *Grid) error {
		got, err := g.XComm.Allgather([]float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		for xx := 0; xx < g.C; xx++ {
			want := xx + g.C*(g.Y+g.D*g.Z)
			if int(got[xx]) != want {
				return fmt.Errorf("XComm member %d is rank %v, want %d", xx, got[xx], want)
			}
		}
		return nil
	})
}

func TestZCommConnectsDepth(t *testing.T) {
	runGrid(t, 2, 2, func(p *simmpi.Proc, g *Grid) error {
		got, err := g.ZComm.Allgather([]float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		for zz := 0; zz < g.C; zz++ {
			want := g.X + g.C*(g.Y+g.D*zz)
			if int(got[zz]) != want {
				return fmt.Errorf("ZComm member %d is rank %v, want %d", zz, got[zz], want)
			}
		}
		return nil
	})
}

func TestYGroupAndStridePartitionY(t *testing.T) {
	// c=2, d=4: y-groups are {0,1} and {2,3}; strides are {0,2} and {1,3}.
	runGrid(t, 2, 4, func(p *simmpi.Proc, g *Grid) error {
		got, err := g.YGroup.Allgather([]float64{float64(g.Y)})
		if err != nil {
			return err
		}
		base := (g.Y / 2) * 2
		if int(got[0]) != base || int(got[1]) != base+1 {
			return fmt.Errorf("y-group members %v, want {%d,%d}", got, base, base+1)
		}
		got, err = g.YStride.Allgather([]float64{float64(g.Y)})
		if err != nil {
			return err
		}
		r := g.Y % 2
		if int(got[0]) != r || int(got[1]) != r+2 {
			return fmt.Errorf("y-stride members %v, want {%d,%d}", got, r, r+2)
		}
		return nil
	})
}

func TestSubcubeMembership(t *testing.T) {
	runGrid(t, 2, 4, func(p *simmpi.Proc, g *Grid) error {
		if g.Cube == nil {
			return errors.New("missing subcube")
		}
		if g.Cube.E != g.C {
			return fmt.Errorf("cube edge %d, want %d", g.Cube.E, g.C)
		}
		if g.Cube.Comm.Size() != 8 {
			return fmt.Errorf("cube size %d", g.Cube.Comm.Size())
		}
		// Cube coords: x and z match grid, y is y mod c.
		if g.Cube.X != g.X || g.Cube.Z != g.Z || g.Cube.Y != g.Y%g.C {
			return fmt.Errorf("cube coords (%d,%d,%d) vs grid (%d,%d,%d)",
				g.Cube.X, g.Cube.Y, g.Cube.Z, g.X, g.Y, g.Z)
		}
		if g.Group != g.Y/g.C {
			return fmt.Errorf("group %d, want %d", g.Group, g.Y/g.C)
		}
		// All members of my cube share my group: allgather groups.
		got, err := g.Cube.Comm.Allgather([]float64{float64(g.Group)})
		if err != nil {
			return err
		}
		for _, v := range got {
			if int(v) != g.Group {
				return fmt.Errorf("cube mixes groups: %v", got)
			}
		}
		return nil
	})
}

func TestCubeSliceAndTransposePartner(t *testing.T) {
	runGrid(t, 2, 2, func(p *simmpi.Proc, g *Grid) error {
		cb := g.Cube
		if cb.Slice.Size() != 4 {
			return fmt.Errorf("cube slice size %d", cb.Slice.Size())
		}
		if cb.Slice.Index() != cb.Y*cb.E+cb.X {
			return fmt.Errorf("cube slice index %d", cb.Slice.Index())
		}
		// Exchange coordinates with the transpose partner and verify
		// they are swapped.
		partner := cb.TransposePartner()
		got, err := cb.Slice.Transpose(partner, []float64{float64(cb.X), float64(cb.Y)})
		if err != nil {
			return err
		}
		if int(got[0]) != cb.Y || int(got[1]) != cb.X {
			return fmt.Errorf("partner coords (%v,%v), want (%d,%d)", got[0], got[1], cb.Y, cb.X)
		}
		return nil
	})
}

func TestStandaloneCube(t *testing.T) {
	_, err := simmpi.RunWithOptions(8, simmpi.Options{Timeout: 30 * time.Second}, func(p *simmpi.Proc) error {
		cb, err := NewCube(p.World(), 2)
		if err != nil {
			return err
		}
		if cb == nil {
			return errors.New("nil cube for member rank")
		}
		lin := cb.X + 2*(cb.Y+2*cb.Z)
		if lin != p.Rank() {
			return fmt.Errorf("cube linearization %d vs rank %d", lin, p.Rank())
		}
		if cb.XComm.Size() != 2 || cb.YComm.Size() != 2 || cb.ZComm.Size() != 2 {
			return errors.New("cube comm sizes wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateGrids(t *testing.T) {
	// 1×1×1 grid: everything size 1.
	runGrid(t, 1, 1, func(p *simmpi.Proc, g *Grid) error {
		if g.XComm.Size() != 1 || g.YComm.Size() != 1 || g.ZComm.Size() != 1 {
			return errors.New("1x1x1 comm sizes wrong")
		}
		return nil
	})
	// 1×d×1 grid: the paper's 1D grid.
	runGrid(t, 1, 4, func(p *simmpi.Proc, g *Grid) error {
		if g.YComm.Size() != 4 || g.XComm.Size() != 1 {
			return errors.New("1D grid comm sizes wrong")
		}
		if g.Cube.Comm.Size() != 1 {
			return fmt.Errorf("1D grid cube size %d", g.Cube.Comm.Size())
		}
		return nil
	})
}

func TestNewRejectsBadShapes(t *testing.T) {
	_, err := simmpi.RunWithOptions(8, simmpi.Options{Timeout: 10 * time.Second}, func(p *simmpi.Proc) error {
		if _, err := New(p.World(), 0, 1); err == nil {
			return errors.New("c=0 accepted")
		}
		if _, err := New(p.World(), 2, 3); err == nil {
			return errors.New("c∤d accepted")
		}
		if _, err := New(p.World(), 4, 4); err == nil {
			return errors.New("oversized grid accepted")
		}
		if _, err := NewCube(p.World(), 3); err == nil {
			return errors.New("oversized cube accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtraRanksGetNilGrid(t *testing.T) {
	// 10 ranks, 2x2x2 grid: ranks 8,9 must get nil and not deadlock.
	_, err := simmpi.RunWithOptions(10, simmpi.Options{Timeout: 30 * time.Second}, func(p *simmpi.Proc) error {
		g, err := New(p.World(), 2, 2)
		if err != nil {
			return err
		}
		if p.Rank() < 8 && g == nil {
			return fmt.Errorf("rank %d should be in grid", p.Rank())
		}
		if p.Rank() >= 8 && g != nil {
			return fmt.Errorf("rank %d should be outside grid", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// countingComm counts the Subgroup calls made on a communicator.
type countingComm struct {
	transport.Comm
	subgroups int
}

func (c *countingComm) Subgroup(indices []int) transport.Comm {
	c.subgroups++
	return c.Comm.Subgroup(indices)
}

func TestEveryRankMakesTheSameFewSubgroupCalls(t *testing.T) {
	// A rank builds only the communicators it sits on — twelve for a
	// grid, five for a cube, whatever c and d are — and a rank outside
	// the grid makes as many calls, or its next derived communicator
	// would hash a different sequence number than the members'.
	for _, sh := range []struct{ c, d int }{{1, 1}, {2, 4}, {4, 4}, {4, 8}} {
		_, err := simmpi.RunWithOptions(sh.c*sh.d*sh.c+1, simmpi.Options{Timeout: 60 * time.Second}, func(p *simmpi.Proc) error {
			w := &countingComm{Comm: p.World()}
			g, err := New(w, sh.c, sh.d)
			if err != nil {
				return err
			}
			if outside := p.Rank() == p.Size()-1; (g == nil) != outside {
				return fmt.Errorf("rank %d of %d: grid %v", p.Rank(), p.Size(), g)
			}
			if w.subgroups != 12 {
				return fmt.Errorf("rank %d: New(%d, %d) made %d Subgroup calls, want 12", p.Rank(), sh.c, sh.d, w.subgroups)
			}
			w.subgroups = 0
			if _, err := NewCube(w, sh.c); err != nil {
				return err
			}
			if w.subgroups != 5 {
				return fmt.Errorf("rank %d: NewCube(%d) made %d Subgroup calls, want 5", p.Rank(), sh.c, w.subgroups)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
