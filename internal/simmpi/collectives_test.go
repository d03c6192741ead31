package simmpi

//lint:allow floatcompare tests assert bitwise reproducibility, which is this library's documented contract

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"cacqr/internal/transport"
)

// collectiveCost runs body on p ranks with α=1, β=1 and returns the
// per-rank maximum (msgs, words) charges — the α and β cost units the
// paper's formulas predict.
func collectiveCost(t *testing.T, p int, body func(*Proc) error) (int64, int64) {
	t.Helper()
	st, err := RunWithOptions(p, Options{Cost: CostParams{Alpha: 1, Beta: 1}, Timeout: 30 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}
	return st.MaxMsgs, st.MaxWords
}

func TestBcastDelivers(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 8} {
		_, err := Run(p, func(pr *Proc) error {
			var in []float64
			if pr.Rank() == 0 {
				in = []float64{3, 1, 4}
			}
			out, err := pr.World().Bcast(0, in)
			if err != nil {
				return err
			}
			if len(out) != 3 || out[0] != 3 || out[1] != 1 || out[2] != 4 {
				return fmt.Errorf("rank %d got %v", pr.Rank(), out)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	_, err := Run(4, func(pr *Proc) error {
		var in []float64
		if pr.Rank() == 2 {
			in = []float64{9}
		}
		out, err := pr.World().Bcast(2, in)
		if err != nil {
			return err
		}
		if out[0] != 9 {
			return fmt.Errorf("got %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastCostFormula(t *testing.T) {
	// T_Bcast(n, P) = 2·log₂P·α + 2n·δ(P)·β.
	for _, tc := range []struct{ p, n int }{{2, 10}, {4, 16}, {8, 5}, {16, 1}} {
		msgs, words := collectiveCost(t, tc.p, func(pr *Proc) error {
			var in []float64
			if pr.Rank() == 0 {
				in = make([]float64, tc.n)
			}
			_, err := pr.World().Bcast(0, in)
			return err
		})
		wantMsgs := 2 * log2Ceil(tc.p)
		wantWords := 2 * int64(tc.n) * delta(tc.p)
		if msgs != wantMsgs || words != wantWords {
			t.Fatalf("P=%d n=%d: cost (%d,%d), want (%d,%d)", tc.p, tc.n, msgs, words, wantMsgs, wantWords)
		}
	}
}

func TestReduceSums(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		_, err := Run(p, func(pr *Proc) error {
			out, err := pr.World().Reduce(0, []float64{float64(pr.Rank()), 1})
			if err != nil {
				return err
			}
			if pr.Rank() == 0 {
				wantSum := float64(p*(p-1)) / 2
				if out[0] != wantSum || out[1] != float64(p) {
					return fmt.Errorf("reduce got %v", out)
				}
			} else if out != nil {
				return errors.New("non-root received reduction")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

func TestReduceCostFormula(t *testing.T) {
	for _, tc := range []struct{ p, n int }{{2, 8}, {8, 32}} {
		msgs, words := collectiveCost(t, tc.p, func(pr *Proc) error {
			_, err := pr.World().Reduce(0, make([]float64, tc.n))
			return err
		})
		if msgs != 2*log2Ceil(tc.p) || words != 2*int64(tc.n) {
			t.Fatalf("P=%d n=%d: cost (%d,%d)", tc.p, tc.n, msgs, words)
		}
	}
}

func TestAllreduceMatchesReducePlusBcast(t *testing.T) {
	f := func(seed int64) bool {
		vals := make([]float64, 4)
		rng := seed
		for i := range vals {
			rng = rng*6364136223846793005 + 1442695040888963407
			vals[i] = float64(rng % 1000)
		}
		var fromAllreduce, fromReduceBcast []float64
		_, err := Run(4, func(pr *Proc) error {
			in := []float64{vals[pr.Rank()]}
			ar, err := pr.World().Allreduce(in)
			if err != nil {
				return err
			}
			red, err := pr.World().Reduce(0, in)
			if err != nil {
				return err
			}
			bc, err := pr.World().Bcast(0, red)
			if err != nil {
				return err
			}
			if pr.Rank() == 3 {
				fromAllreduce, fromReduceBcast = ar, bc
			}
			return nil
		})
		if err != nil {
			return false
		}
		return fromAllreduce[0] == fromReduceBcast[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceCostFormula(t *testing.T) {
	for _, tc := range []struct{ p, n int }{{2, 4}, {4, 100}, {16, 7}} {
		msgs, words := collectiveCost(t, tc.p, func(pr *Proc) error {
			_, err := pr.World().Allreduce(make([]float64, tc.n))
			return err
		})
		if msgs != 2*log2Ceil(tc.p) || words != 2*int64(tc.n) {
			t.Fatalf("P=%d n=%d: cost (%d,%d)", tc.p, tc.n, msgs, words)
		}
	}
}

func TestAllgatherConcatenatesInRankOrder(t *testing.T) {
	_, err := Run(4, func(pr *Proc) error {
		// Unequal block sizes: rank r contributes r+1 copies of r.
		in := make([]float64, pr.Rank()+1)
		for i := range in {
			in[i] = float64(pr.Rank())
		}
		out, err := pr.World().Allgather(in)
		if err != nil {
			return err
		}
		want := []float64{0, 1, 1, 2, 2, 2, 3, 3, 3, 3}
		if len(out) != len(want) {
			return fmt.Errorf("len %d", len(out))
		}
		for i := range want {
			if out[i] != want[i] {
				return fmt.Errorf("rank %d: out[%d]=%v want %v", pr.Rank(), i, out[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherCostFormula(t *testing.T) {
	// T_Allgather(n, P) = log₂P·α + n·δ(P)·β, n the total gathered size.
	for _, tc := range []struct{ p, blk int }{{2, 5}, {8, 3}, {16, 2}} {
		msgs, words := collectiveCost(t, tc.p, func(pr *Proc) error {
			_, err := pr.World().Allgather(make([]float64, tc.blk))
			return err
		})
		total := int64(tc.p * tc.blk)
		if msgs != log2Ceil(tc.p) || words != total {
			t.Fatalf("P=%d blk=%d: cost (%d,%d), want (%d,%d)", tc.p, tc.blk, msgs, words, log2Ceil(tc.p), total)
		}
	}
}

func TestTransposeSwaps(t *testing.T) {
	_, err := Run(2, func(pr *Proc) error {
		out, err := pr.World().Transpose(1-pr.Rank(), []float64{float64(pr.Rank())})
		if err != nil {
			return err
		}
		if out[0] != float64(1-pr.Rank()) {
			return fmt.Errorf("transpose got %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransposeSelfIsFree(t *testing.T) {
	st, err := RunWithOptions(1, Options{Cost: CostParams{Alpha: 1, Beta: 1}}, func(pr *Proc) error {
		out, err := pr.World().Transpose(0, []float64{42})
		if err != nil {
			return err
		}
		if out[0] != 42 {
			return fmt.Errorf("self transpose %v", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxMsgs != 0 || st.MaxWords != 0 {
		t.Fatalf("self transpose charged (%d,%d)", st.MaxMsgs, st.MaxWords)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	st, err := RunWithOptions(4, Options{Cost: CostParams{Alpha: 1, Gamma: 1}}, func(pr *Proc) error {
		if err := pr.Compute(int64(pr.Rank()) * 10); err != nil {
			return err
		}
		if err := pr.World().Barrier(); err != nil {
			return err
		}
		// After a barrier everyone's clock must be at least the slowest
		// entrant's (30) — charged 2α by the dissemination rounds.
		if pr.Clock() < 30 {
			return fmt.Errorf("rank %d clock %v below barrier bound", pr.Rank(), pr.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxMsgs != log2Ceil(4) {
		t.Fatalf("barrier charged %d α, want %d", st.MaxMsgs, log2Ceil(4))
	}
}

func TestCollectiveClocksAreCausal(t *testing.T) {
	// A collective is causal, not lockstep: a member leaves at its own
	// price after the latest send it had to wait for. With α=γ=1 rank r
	// enters at 10r; a Bcast from rank 0 costs 2·log₂4 = 4, so the root
	// leaves at 4 without waiting for the late receivers, and every
	// receiver at its own entry + 4. A Barrier still lifts everyone to
	// the slowest entrant (34) before charging its log₂4 = 2.
	_, err := RunWithOptions(4, Options{Cost: CostParams{Alpha: 1, Gamma: 1}, Timeout: 30 * time.Second}, func(pr *Proc) error {
		entry := float64(10 * pr.Rank())
		if err := pr.Compute(int64(entry)); err != nil {
			return err
		}
		var in []float64
		if pr.Rank() == 0 {
			in = []float64{1}
		}
		if _, err := pr.World().Bcast(0, in); err != nil {
			return err
		}
		if pr.Clock() != entry+4 {
			return fmt.Errorf("rank %d left the bcast at %v, want its entry %v + price 4", pr.Rank(), pr.Clock(), entry)
		}
		if err := pr.World().Barrier(); err != nil {
			return err
		}
		if pr.Clock() != 36 {
			return fmt.Errorf("rank %d left the barrier at %v, want slowest entrant 34 + price 2", pr.Rank(), pr.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveOnSingleRankIsFree(t *testing.T) {
	st, err := RunWithOptions(1, Options{Cost: CostParams{Alpha: 1, Beta: 1}}, func(pr *Proc) error {
		w := pr.World()
		if _, err := w.Bcast(0, []float64{1}); err != nil {
			return err
		}
		if _, err := w.Allreduce([]float64{1}); err != nil {
			return err
		}
		if _, err := w.Allgather([]float64{1}); err != nil {
			return err
		}
		if _, err := w.Reduce(0, []float64{1}); err != nil {
			return err
		}
		return w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxMsgs != 0 || st.MaxWords != 0 {
		t.Fatalf("P=1 collectives charged (%d,%d)", st.MaxMsgs, st.MaxWords)
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	_, err := RunWithOptions(2, Options{Timeout: 5 * time.Second}, func(pr *Proc) error {
		_, err := pr.World().Bcast(7, nil)
		return err
	})
	if err == nil {
		t.Fatal("invalid root accepted")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 1024: 10}
	for p, want := range cases {
		if got := log2Ceil(p); got != want {
			t.Fatalf("log2Ceil(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestAllreduceAssociativityUnderSplit(t *testing.T) {
	// Sum over the world equals the sum of subgroup sums allreduced over
	// a representative comm — exercises Split + nested collectives.
	_, err := Run(8, func(pr *Proc) error {
		w := pr.World()
		half, err := w.Split(pr.Rank()/4, pr.Rank())
		if err != nil {
			return err
		}
		local, err := half.Allreduce([]float64{float64(pr.Rank())})
		if err != nil {
			return err
		}
		want := 6.0 // 0+1+2+3
		if pr.Rank() >= 4 {
			want = 22.0 // 4+5+6+7
		}
		if math.Abs(local[0]-want) > 0 {
			return fmt.Errorf("rank %d half-sum %v want %v", pr.Rank(), local[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrderingByKey(t *testing.T) {
	_, err := Run(4, func(pr *Proc) error {
		// Reverse ordering via descending keys.
		c, err := pr.World().Split(0, -pr.Rank())
		if err != nil {
			return err
		}
		if c.Size() != 4 {
			return fmt.Errorf("size %d", c.Size())
		}
		wantIndex := 3 - pr.Rank()
		if c.Index() != wantIndex {
			return fmt.Errorf("rank %d index %d want %d", pr.Rank(), c.Index(), wantIndex)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubgroupCommunicates(t *testing.T) {
	_, err := Run(6, func(pr *Proc) error {
		w := pr.World()
		evens := w.Subgroup([]int{0, 2, 4})
		odds := w.Subgroup([]int{1, 3, 5})
		var mine transport.Comm
		if pr.Rank()%2 == 0 {
			mine = evens
			if odds != nil {
				return errors.New("even rank got odd comm")
			}
		} else {
			mine = odds
			if evens != nil {
				return errors.New("odd rank got even comm")
			}
		}
		sum, err := mine.Allreduce([]float64{float64(pr.Rank())})
		if err != nil {
			return err
		}
		want := 6.0 // 0+2+4
		if pr.Rank()%2 == 1 {
			want = 9.0 // 1+3+5
		}
		if sum[0] != want {
			return fmt.Errorf("rank %d sum %v want %v", pr.Rank(), sum[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
