package core

import (
	"errors"
	"runtime"
	"testing"

	"cacqr/internal/lin"
)

func batchInputs(b, m, n int, seed int64) []*lin.Matrix {
	as := make([]*lin.Matrix, b)
	for i := range as {
		as[i] = lin.RandomMatrix(m, n, seed+int64(i))
	}
	return as
}

// The fused drivers' headline contract: per item, results are bitwise
// identical to the sequential drivers with workers=1 — for any batch
// size and any pool fan-out.
func TestBatchedCQR2BitwiseMatchesSequential(t *testing.T) {
	for _, batch := range []int{1, 3, 17} {
		for _, sh := range []struct{ m, n int }{{12, 4}, {96, 24}, {512, 32}} {
			as := batchInputs(batch, sh.m, sh.n, 40)
			for _, w := range []int{1, 4, runtime.NumCPU()} {
				qs, rs, errs := BatchedCQR2(as, w)
				for i := 0; i < batch; i++ {
					if errs[i] != nil {
						t.Fatalf("batch=%d shape=%dx%d workers=%d item %d: %v",
							batch, sh.m, sh.n, w, i, errs[i])
					}
					wantQ, wantR, err := CholeskyQR2(as[i], 1)
					if err != nil {
						t.Fatalf("serial reference failed: %v", err)
					}
					if !qs[i].Equal(wantQ) || !rs[i].Equal(wantR) {
						t.Fatalf("batch=%d shape=%dx%d workers=%d item %d differs from CholeskyQR2",
							batch, sh.m, sh.n, w, i)
					}
				}
			}
		}
	}
}

func TestBatchedShiftedCQR3BitwiseMatchesSequential(t *testing.T) {
	for _, batch := range []int{1, 5} {
		as := make([]*lin.Matrix, batch)
		for i := range as {
			// Conditioning beyond plain CQR2's regime: exactly the traffic
			// the shifted route exists for.
			as[i] = lin.RandomWithCond(128, 16, 1e9, int64(70+i))
		}
		for _, w := range []int{1, 4, runtime.NumCPU()} {
			qs, rs, errs := BatchedShiftedCQR3(as, w)
			for i := 0; i < batch; i++ {
				if errs[i] != nil {
					t.Fatalf("batch=%d workers=%d item %d: %v", batch, w, i, errs[i])
				}
				wantQ, wantR, err := ShiftedCQR3(as[i], 1)
				if err != nil {
					t.Fatalf("serial reference failed: %v", err)
				}
				if !qs[i].Equal(wantQ) || !rs[i].Equal(wantR) {
					t.Fatalf("batch=%d workers=%d item %d differs from ShiftedCQR3", batch, w, i)
				}
			}
		}
	}
}

// Failures are per item: one ill-conditioned member must not disturb its
// batch-mates.
func TestBatchedCQR2IsolatesIllConditionedItems(t *testing.T) {
	as := []*lin.Matrix{
		lin.RandomMatrix(64, 8, 1),
		lin.RandomWithCond(64, 8, 1e12, 2), // κ² overflows the precision
		lin.RandomMatrix(64, 8, 3),
	}
	qs, rs, errs := BatchedCQR2(as, 4)
	if errs[1] == nil || !errors.Is(errs[1], ErrIllConditioned) {
		t.Fatalf("ill-conditioned item error = %v, want ErrIllConditioned", errs[1])
	}
	if qs[1] != nil || rs[1] != nil {
		t.Fatal("failed item must have nil factors")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("healthy item %d: %v", i, errs[i])
		}
		wantQ, wantR, err := CholeskyQR2(as[i], 1)
		if err != nil {
			t.Fatalf("serial reference failed: %v", err)
		}
		if !qs[i].Equal(wantQ) || !rs[i].Equal(wantR) {
			t.Fatalf("healthy item %d disturbed by its failed batch-mate", i)
		}
	}
}

func TestBatchedCQR2EdgeCases(t *testing.T) {
	qs, rs, errs := BatchedCQR2(nil, 4)
	if len(qs) != 0 || len(rs) != 0 || len(errs) != 0 {
		t.Fatal("empty batch must return empty slices")
	}
	// m < n is rejected per item, matching the sequential driver.
	_, _, errs = BatchedCQR2([]*lin.Matrix{lin.RandomMatrix(3, 5, 1), lin.RandomMatrix(3, 5, 2)}, 1)
	for i, err := range errs {
		if !errors.Is(err, lin.ErrShape) {
			t.Fatalf("item %d: err = %v, want ErrShape", i, err)
		}
	}
	// Mixed shapes: each item is its own CholeskyQR2, and a wide one
	// fails alone.
	as := []*lin.Matrix{
		lin.RandomMatrix(64, 8, 3),
		lin.RandomMatrix(96, 24, 4),
		lin.RandomMatrix(4, 6, 5),
		lin.RandomMatrix(64, 8, 6),
		lin.RandomMatrix(96, 24, 7),
	}
	qs, rs, errs = BatchedCQR2(as, 4)
	for i, a := range as {
		if a.Rows < a.Cols {
			if !errors.Is(errs[i], lin.ErrShape) || qs[i] != nil || rs[i] != nil {
				t.Fatalf("wide item %d: err = %v, want ErrShape and nil factors", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("item %d (%dx%d): %v", i, a.Rows, a.Cols, errs[i])
		}
		wantQ, wantR, err := CholeskyQR2(a, 1)
		if err != nil {
			t.Fatalf("serial reference failed: %v", err)
		}
		if !qs[i].Equal(wantQ) || !rs[i].Equal(wantR) {
			t.Fatalf("item %d (%dx%d) differs from CholeskyQR2", i, a.Rows, a.Cols)
		}
	}
}
