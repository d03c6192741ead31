package simmpi

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cacqr/internal/grid"
	"cacqr/internal/transport"
)

func TestReduceLengthMismatchSurfaces(t *testing.T) {
	// Mismatched reduction lengths are a programming error; the run
	// must end with an error, not a crash or deadlock.
	_, err := RunWithOptions(2, Options{Timeout: 10 * time.Second}, func(p *Proc) error {
		buf := make([]float64, 2+p.Rank()) // lengths differ across ranks
		_, err := p.World().Allreduce(buf)
		return err
	})
	if err == nil {
		t.Fatal("mismatched reduction lengths accepted")
	}
}

func TestSubgroupIndexOutOfRangeSurfaces(t *testing.T) {
	_, err := RunWithOptions(2, Options{Timeout: 10 * time.Second}, func(p *Proc) error {
		p.World().Subgroup([]int{0, 5})
		return nil
	})
	if err == nil {
		t.Fatal("out-of-range subgroup index accepted")
	}
}

func TestClockAccessors(t *testing.T) {
	_, err := RunWithOptions(1, Options{Cost: CostParams{Gamma: 2}}, func(p *Proc) error {
		if p.Clock() != 0 {
			return errors.New("fresh clock not zero")
		}
		if err := p.Compute(5); err != nil {
			return err
		}
		if p.Clock() != 10 {
			return fmt.Errorf("clock %v after 5 flops at γ=2", p.Clock())
		}
		c := p.Counters()
		if c.Flops != 5 || c.Time != 10 {
			return fmt.Errorf("counters %+v", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldAccessors(t *testing.T) {
	_, err := Run(3, func(p *Proc) error {
		w := p.World()
		if w.Size() != 3 || w.Index() != p.Rank() {
			return errors.New("world accessors wrong")
		}
		if w.GlobalRank(2) != 2 {
			return errors.New("GlobalRank wrong")
		}
		if w.Proc() != p {
			return errors.New("Proc accessor wrong")
		}
		if p.Size() != 3 {
			return errors.New("Size wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplitDeterminism(t *testing.T) {
	// Splitting twice along different axes must wire up consistently on
	// every rank: a 2D decomposition where row and column sums check out.
	_, err := RunWithOptions(6, Options{Timeout: 30 * time.Second}, func(p *Proc) error {
		// 2 rows x 3 cols; rank = row*3 + col.
		row, col := p.Rank()/3, p.Rank()%3
		rowComm, err := p.World().Split(row, col)
		if err != nil {
			return err
		}
		colComm, err := p.World().Split(col, row)
		if err != nil {
			return err
		}
		rs, err := rowComm.Allreduce([]float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		cs, err := colComm.Allreduce([]float64{float64(p.Rank())})
		if err != nil {
			return err
		}
		wantRow := float64(3*row*3 + 3) // sum of {3r, 3r+1, 3r+2}
		wantCol := float64(col + col + 3)
		if rs[0] != wantRow || cs[0] != wantCol {
			return fmt.Errorf("rank %d: row sum %v (want %v), col sum %v (want %v)",
				p.Rank(), rs[0], wantRow, cs[0], wantCol)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommIDsAgreeAndStayDistinctOnGrid(t *testing.T) {
	// Communicator ids are hashed from (parent id, call sequence,
	// members), not handed out by a registry, and a rank names only the
	// groups it sits on: on a 64-rank 4×4×4 grid — 12 kinds of
	// communicator, 186 of them — and a 128-rank 4×8×4 one (287) every
	// member of a communicator must have derived the same id, and no two
	// communicators may share one, or their messages would cross. The
	// world is three ranks larger than the grid: the outside ranks build
	// nothing but count the same calls, so a communicator that they and
	// grid members derive from the world afterwards gets one id too.
	for _, sh := range []struct{ c, d, want int }{{4, 4, 186}, {4, 8, 287}} {
		c, d := sh.c, sh.d
		p0 := c * d * c
		var mu sync.Mutex
		members := map[uint64]string{} // id → "kind[global ranks]"
		ids := map[string]uint64{}
		_, err := RunWithOptions(p0+3, Options{Timeout: 60 * time.Second}, func(p *Proc) error {
			g, err := grid.New(p.World(), c, d)
			if err != nil {
				return err
			}
			// Grid ranks 0 and 1 with the three outside ranks.
			mixed := p.World().Subgroup([]int{0, p0, 1, p0 + 2, p0 + 1})
			comms := map[string]transport.Comm{}
			if g != nil {
				comms = map[string]transport.Comm{
					"world": g.World, "x": g.XComm, "y": g.YComm, "z": g.ZComm, "slice": g.Slice,
					"ygroup": g.YGroup, "ystride": g.YStride, "cube": g.Cube.Comm,
					"cube-x": g.Cube.XComm, "cube-y": g.Cube.YComm, "cube-z": g.Cube.ZComm, "cube-slice": g.Cube.Slice,
				}
			}
			if mixed != nil {
				comms["mixed"] = mixed
			} else if p.Rank() < 2 || p.Rank() >= p0 {
				return fmt.Errorf("rank %d is on the mixed list and got no communicator", p.Rank())
			}
			mu.Lock()
			defer mu.Unlock()
			for kind, tc := range comms {
				ranks := make([]int, tc.Size())
				for i := range ranks {
					ranks[i] = tc.GlobalRank(i)
				}
				id := tc.(interface{ ID() uint64 }).ID()
				who := fmt.Sprintf("%s%v", kind, ranks)
				if prev, ok := members[id]; ok && prev != who {
					return fmt.Errorf("id %#x names both %s and %s", id, prev, who)
				}
				if prev, ok := ids[who]; ok && prev != id {
					return fmt.Errorf("%s has ids %#x and %#x on different members", who, prev, id)
				}
				members[id], ids[who] = who, id
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != sh.want+1 {
			t.Fatalf("%d communicators seen on the %dx%dx%d grid and beside it, want %d and the mixed one", len(ids), c, d, c, sh.want)
		}
	}
}

func TestPhaseAccounting(t *testing.T) {
	st, err := RunWithOptions(2, Options{Cost: CostParams{Alpha: 1, Beta: 1, Gamma: 1}}, func(p *Proc) error {
		// Unlabeled work is not phase-attributed.
		if err := p.Compute(5); err != nil {
			return err
		}
		prev := p.SetPhase("compute")
		if prev != "" {
			return errors.New("fresh phase not empty")
		}
		if err := p.Compute(int64(10 * (p.Rank() + 1))); err != nil {
			return err
		}
		p.SetPhase("talk")
		if _, err := p.World().Allreduce([]float64{1, 2}); err != nil {
			return err
		}
		p.SetPhase("")
		p.ChargeComm(1, 1) // not attributed
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Phases) != 2 {
		t.Fatalf("phases: %v", st.Phases)
	}
	if c := st.Phases["compute"]; c.Flops != 20 || c.Msgs != 0 {
		t.Fatalf("compute phase %+v (want per-rank max flops 20)", c)
	}
	if c := st.Phases["talk"]; c.Msgs != 2 || c.Words != 4 || c.Flops != 0 {
		t.Fatalf("talk phase %+v", c)
	}
	// Unattributed work appears in totals but no phase.
	if st.MaxFlops != 25 {
		t.Fatalf("MaxFlops %d", st.MaxFlops)
	}
}

func TestManyRanksSmoke(t *testing.T) {
	// 512 goroutine ranks with a world allreduce: the runtime must scale
	// to the largest grids the test suite uses.
	const p = 512
	st, err := RunWithOptions(p, Options{Timeout: 60 * time.Second}, func(pr *Proc) error {
		v, err := pr.World().Allreduce([]float64{1})
		if err != nil {
			return err
		}
		if v[0] != p {
			return fmt.Errorf("allreduce %v", v[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxMsgs != 2*log2Ceil(p) {
		t.Fatalf("allreduce α %d, want %d", st.MaxMsgs, 2*log2Ceil(p))
	}
}
